"""Repeat the benchmark over several seeds and report how steady each metric is.

    python3 bench/prove.py --runs 10 --out bench/baseline.json
    python3 bench/prove.py --runs 5 --workloads hall81 --no-trace

Runs `bench/run.py` once per seed for every workload, round-robin, with the
run length from BENCHMARK.json.  For each end-to-end metric it prints the
median and the spread, (q3 - q1) / median with the quartiles of
statistics.quantiles(values, n=4), next to the metric's bound; a spread
above a third of the bound is flagged.  Unless --no-trace is given it then
makes one traced run per workload and reports the tracing overhead, traced
run_s minus untraced median run_s, and each module's share of self time.
--out writes all of it, with the machine facts and the layer map of
bench/spans.py, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

from spans import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.stderr.write(proc.stderr)
    return result


def cpu_model() -> str:
    try:
        for row in Path("/proc/cpuinfo").read_text().splitlines():
            if row.startswith("model name"):
                return row.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    all_workloads = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(all_workloads))
    ap.add_argument("--no-trace", action="store_true")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    chosen = args.workloads.split(",")
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {w: {m: [] for m in bounds} for w in chosen}
    runs = {w: {"attempted": 0, "failed": 0, "incorrect": 0} for w in chosen}
    for i in range(args.runs):
        for w in chosen:
            r = run_once(w, args.first_seed + i, seconds, 0)
            runs[w]["attempted"] += r["attempted"]
            runs[w]["failed"] += r["failed"]
            runs[w]["incorrect"] += not r["correct"]
            for m in bounds:
                values[w][m].append(r["metrics"][m]["value"])
            print(f"{w} seed {args.first_seed + i}: run_s {r['metrics']['run_s']['value']:.3f}",
                  file=sys.stderr)

    report = {"workloads": {}}
    print(f"{'workload':18s} {'metric':12s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for w in chosen:
        report["workloads"][w] = {"runs": args.runs, **runs[w],
                                  "error_rate": runs[w]["failed"] / max(runs[w]["attempted"], 1)}
        for m, vals in values[w].items():
            q1, _, q3 = quantiles(vals, n=4)
            med = median(vals)
            spread = (q3 - q1) / med
            flag = "  <-- above bound/3" if spread > bounds[m] / 3 else ""
            print(f"{w:18s} {m:12s} {med:12.4f} {spread:8.4f} {bounds[m]:6.2f}{flag}")
            report["workloads"][w][m] = {"median": med, "q1": q1, "q3": q3,
                                         "spread": spread, "values": vals}

    if not args.no_trace:
        for w in chosen:
            layers = {k: v["value"] for k, v in run_once(w, args.first_seed, seconds, 1)["metrics"].items()}
            modules = {m: layers[f"{m}.self_s"] for m in LAYERS}
            total = sum(modules.values()) or 1.0
            overhead = layers["trace.run_s"] - report["workloads"][w]["run_s"]["median"]
            report["workloads"][w]["traced"] = {
                "run_s": layers["trace.run_s"],
                "overhead_s": overhead,
                "module_share": {m: v / total for m, v in modules.items()},
                "absent": layers["trace.absent"],
            }
            shares = ", ".join(f"{m} {100 * v / total:.1f}%" for m, v in modules.items() if v / total >= 0.005)
            print(f"{w}: traced run_s {layers['trace.run_s']:.3f}, overhead {overhead:+.3f} s; {shares}")

    if args.out:
        report["machine"] = {"nproc": os.cpu_count(), "cpu": cpu_model(),
                             "python": platform.python_version()}
        report["run_seconds"] = seconds
        report["layer_map"] = {
            m: {"wrapped": list(attrs), "should_move": moves} for m, (attrs, moves) in LAYERS.items()
        }
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
