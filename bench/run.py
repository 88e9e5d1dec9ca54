"""matsuo2 benchmark: time one workload and print its metrics as one JSON line.

    python3 bench/run.py --workload paper_suite --seed 1 --seconds 10 --trace 0

Run from anywhere inside a source checkout; it needs src/matsuo2 next to
bench/.  Each timed pass runs in a fresh child process (bench/workloads.py),
one at a time, so every pass pays interpreter start, imports and the
library's lazy caches, as a command-line user does.  Passes repeat until
one more of the same length would overrun --seconds; at least one runs.
Set-up is sampled in at least MIN_SETUPS children, adding set-up-only
children when there are fewer passes.

Times are reference seconds: the child's CPU seconds times the speed of its
CPU during that window, relative to a reference core, as measured by the
probe of bench/speed.py.  The run pins itself, its children and the probe
to one CPU, so the probe sees the core the pass runs on.  On a shared host
the raw time of one pass can double from one minute to the next; the
reference time varies by a few percent.  Raw wall times go to stderr.

--trace 0 reports the end-to-end metrics: run_s, throughput, setup_s and
peak_rss_mb.  --trace 1 wraps the library's functions in every pass and
reports the per-layer metrics of bench/spans.py instead, with their seconds
scaled by the same speed.  Every value is a median over the run's children.
`attempted` counts the child processes, `failed` those that raised, exited
non-zero, failed their oracle check, or produced a different output digest
from the run's first pass.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_suite", "classify_catalog", "hall81", "miyamoto_gf16")
MIN_SETUPS = 5
# A run must exit within 180 s, whatever --seconds asks for; stopping the
# speed probe may take up to 10 s after the last child.
BUDGET_S = 150.0
DEADLINE_S = 165.0


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("MATSUO2_THREADS", None)  # the library's default: one thread
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def spawn(workload: str, seed: int, mode: str, scratch: Path, timeout: float) -> dict:
    """Run one child to completion and return its JSON line plus its wall time."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "workloads.py"), workload, str(seed), mode,
           repr(t0), str(scratch)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"ok": False, "wall_s": time.monotonic() - t0, "error": "timed out"}
    wall = time.monotonic() - t0
    sys.stderr.write(proc.stderr)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"ok": False}
    result["ok"] = result.get("ok") is True and proc.returncode == 0
    result["wall_s"] = wall
    return result


def measure(workload: str, seed: int, seconds: int, trace: bool, scratch: Path) -> list[dict]:
    start = time.monotonic()
    passes = []
    while True:
        passes.append(spawn(workload, seed, "trace" if trace else "pass", scratch,
                            start + DEADLINE_S - time.monotonic()))
        # start another pass only if one more like the last still fits
        elapsed = time.monotonic() - start
        if elapsed + passes[-1]["wall_s"] > min(seconds, BUDGET_S):
            break
    setups = [spawn(workload, seed, "setup", scratch, start + DEADLINE_S - time.monotonic())
              for _ in range(MIN_SETUPS - len(passes))]
    return passes + setups


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "matsuo2" / "__init__.py").is_file():
        print(f"error: no matsuo2 sources at {ROOT / 'src' / 'matsuo2'}; run the "
              "benchmark from a matsuo2 source checkout", file=sys.stderr)
        return 2
    # compile once here so no child's set-up includes writing bytecode
    compileall.compile_dir(ROOT / "src" / "matsuo2", quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)

    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    pin_to_one_cpu()
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=build))
    probe = speed.Probe()
    try:
        children = measure(args.workload, args.seed, args.seconds, bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        samples = probe.stop()
    if not samples:
        print("error: the speed probe recorded no samples", file=sys.stderr)
        return 3
    for c in children:
        to_reference(c, samples)

    passes = [c for c in children if "run_s" in c]
    digests = [c.get("digest") for c in passes]
    failed = sum(1 for c in children if not c["ok"])
    failed += sum(1 for c in passes if c["ok"] and c.get("digest") != digests[0])

    def med(key, among=children):
        values = [c[key] for c in among if key in c]
        return median(values) if values else 0.0

    if args.trace:
        from spans import median_metrics, metric_names, unit

        traced = [c["layers"] for c in passes if "layers" in c]
        values = median_metrics(traced) if traced else dict.fromkeys(metric_names(), 0.0)
        units = {name: unit(name) for name in values}
    else:
        values = {
            "run_s": med("run_s"),
            "throughput": median(c["units"] / c["run_s"] for c in passes) if passes else 0.0,
            "setup_s": med("setup_s"),
            "peak_rss_mb": med("peak_rss_mb"),
        }
        units = {"run_s": "s", "throughput": "1/s", "setup_s": "s", "peak_rss_mb": "MiB"}
    print(f"{args.workload} seed {args.seed}: {len(passes)} timed passes, "
          f"{sum(1 for c in children if 'setup_s' in c)} set-up samples, "
          f"{failed} of {len(children)} children failed", file=sys.stderr)
    print(f"  pass: median {med('run_s', passes):.4f} reference s, "
          f"{med('run_cpu_s', passes):.4f} CPU s, {med('wall_s', passes):.4f} wall s "
          f"(child start to exit); CPU speed {med('speed', passes):.3f} of the reference",
          file=sys.stderr)
    print(f"  set-up: median {med('setup_s'):.4f} reference s", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(children),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }))
    return 0


def pin_to_one_cpu() -> None:
    """Pin this process, and so its children and the probe, to one CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def to_reference(child: dict, samples) -> None:
    """Add the child's set-up and pass times in reference seconds."""
    if "setup_window" in child:
        child["setup_s"] = child["setup_cpu_s"] * speed.factor(samples, *child["setup_window"])
    if "run_window" in child:
        child["speed"] = speed.factor(samples, *child["run_window"])
        child["run_s"] = child["run_cpu_s"] * child["speed"]
        if "layers" in child:
            layers = child["layers"]
            for name, value in layers.items():
                if name.endswith("_s") or name.endswith(".s"):
                    layers[name] = value * child["speed"]
            layers["trace.run_s"] = child["run_s"]

if __name__ == "__main__":
    sys.exit(main())
