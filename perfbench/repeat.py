"""Run every workload over several seeds and report each metric's spread.

    python3 perfbench/repeat.py --runs 10 --first-seed 1 --out runs.json

For every workload and end-to-end metric it prints the median, the quartiles
(as ``statistics.quantiles(values, n=4)`` gives them) and the spread, the
interquartile distance as a share of the median, next to the metric's bound
from ``BENCHMARK.json``. A spread above a third of the bound is marked
``WIDE``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from run import ROOT, run_child


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", help="write every run and the summary here")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report: dict = {"seconds": spec["run_seconds"], "workloads": {}}
    failed = 0
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = run_child(workload, seed, spec["run_seconds"], 0)
            failed += result["failed"] if result["correct"] else 1
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        summary = {name: summarize([r["metrics"][name]["value"] for r in runs]) for name in bounds}
        report["workloads"][workload] = {"runs": runs, "summary": summary}
        for name, s in summary.items():
            flag = "WIDE" if s["spread"] > bounds[name] / 3 else ""
            print(f"  {workload:15s} {name:14s} median {s['median']:12.6g} "
                  f"q1 {s['q1']:12.6g} q3 {s['q3']:12.6g} spread {s['spread']:7.4f} "
                  f"bound {bounds[name]:5.3f} {flag}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1), encoding="utf-8")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
