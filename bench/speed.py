"""CPU-speed probe: how fast the benchmark's CPU runs while a pass is timed.

    python3 bench/speed.py     # samples until stdin closes, then prints them

On a shared host the same pass can take twice as long from one minute to
the next, because other jobs slow the core it runs on; a second process on
that core sees the same slowdown.  So while a run lasts, this probe
runs on the same CPU as the passes (run.py pins both).  Every interval it
times a fixed pure-Python kernel with its own thread's CPU clock, which
counts neither the pass nor the host's steal time, only how fast the core
executes.  `factor` turns the samples taken inside a pass into a speed
relative to a reference core, and run.py multiplies the pass's CPU time by
it: the result is the pass's time on a core that runs the kernel in
K_REF_NS.

The probe takes about 2% of the CPU and does not touch the library.
"""

from __future__ import annotations

import json
import select
import subprocess
import sys
import time
from pathlib import Path
from statistics import fmean

# Kernel time of the reference core: a fixed constant near what a 2-core
# Intel Xeon (Python 3.11) usually takes, so reference seconds read close to
# its CPU seconds.
K_REF_NS = 1_300_000
ROUNDS = 6000
INTERVAL_S = 0.05
# A window with fewer samples than this borrows the nearest ones.
MIN_SAMPLES = 3


def kernel(rounds: int = ROUNDS) -> int:
    """Fixed interpreter work: dict updates, integer arithmetic and a loop."""
    table: dict[int, int] = {}
    total = 0
    for i in range(rounds):
        table[i & 255] = table.get(i & 255, 0) ^ (i * 2654435761 & 0xFFFF)
        total += i & 7
    return total


def sample() -> tuple[float, int]:
    """One timed kernel: (monotonic midpoint in s, thread CPU time in ns)."""
    kernel(ROUNDS // 10)  # refill the caches the pass evicted while we slept
    m0 = time.monotonic()
    c0 = time.thread_time_ns()
    kernel()
    cpu = time.thread_time_ns() - c0
    return (m0 + time.monotonic()) / 2, cpu


def factor(samples: list[tuple[float, int]], t0: float, t1: float) -> float:
    """Mean speed relative to the reference core over the window [t0, t1].

    Each sample stands for an equal slice of time, so the mean of the speeds
    (not of the kernel times) is the share of reference work done per second.
    """
    if not samples:
        raise ValueError("the speed probe recorded no samples")
    inside = [k for t, k in samples if t0 <= t <= t1]
    if len(inside) < MIN_SAMPLES:
        mid = (t0 + t1) / 2
        inside = [k for _, k in sorted(samples, key=lambda s: abs(s[0] - mid))[:MIN_SAMPLES]]
    return fmean(K_REF_NS / k for k in inside)


class Probe:
    """The probe process; `stop` ends it, waits for it and returns its samples."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def stop(self) -> list[tuple[float, int]]:
        try:
            out, _ = self.proc.communicate(timeout=10)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
        try:
            return [(t, k) for t, k in json.loads(out)]
        except (TypeError, ValueError):
            return []


def main() -> int:
    samples = []
    kernel()
    while not select.select([sys.stdin], [], [], INTERVAL_S)[0]:
        samples.append(sample())
    print(json.dumps(samples))
    return 0


if __name__ == "__main__":
    sys.exit(main())
