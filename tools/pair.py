"""Paired benchmark runs of a parent revision against this checkout.

Run from the root of a checkout:

    python tools/pair.py --parent REV --pairs 10 --workload train-deep --seconds 10 --out BENCH_8.json

The parent revision is checked out into a temporary ``git worktree``. Each
pair runs one workload once on the parent and once on this checkout, through
each tree's own ``perfbench/run.py`` (its ``run_child``, so every run is a
fresh process that builds its inputs from its own sources); which side runs
first alternates from pair to pair, so a drift in the machine's speed does
not favour one side. All runs of a workload use one seed.

The output records the machine (nproc, python, numpy), the git revisions
and, per workload and for each end-to-end metric that ``BENCHMARK.json``
gates, every run's value on both sides, their medians and quartiles, the
number of pairs the change wins, and each run's ``failed_ratio``.
``--workload all`` runs every workload of ``BENCHMARK.json`` in turn.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(
        ["git", *args], cwd=cwd, check=True, capture_output=True, text=True
    ).stdout.strip()


def load_runner(tree: Path):
    """``tree``'s ``perfbench/run.py`` as a module, imported without leaking its imports.

    ``run.py`` puts its tree's ``src`` on ``sys.path`` and imports its sibling
    modules by bare name, so two trees would share whichever copy came first.
    Every module loaded from ``tree`` is dropped from ``sys.modules`` again
    (the returned module keeps its own references), and ``sys.path`` is
    restored.
    """
    tree = tree.resolve()
    saved_path = list(sys.path)
    sys.path.insert(0, str(tree / "perfbench"))
    try:
        spec = importlib.util.spec_from_file_location(
            f"perfbench_run_{abs(hash(tree))}", tree / "perfbench" / "run.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved_path
        for name, loaded in list(sys.modules.items()):
            origin = getattr(loaded, "__file__", None) or ""
            if origin and Path(origin).resolve().is_relative_to(tree):
                del sys.modules[name]
    return module


def quartiles(values: list[float]) -> list[float]:
    """First and third quartile (inclusive method); one value is both."""
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarise(gated: list[dict], parent: list[dict], change: list[dict]) -> dict:
    """Per-metric values, medians, quartiles and wins of one workload's pairs."""
    metrics = {}
    for spec in gated:
        name = spec["name"]
        before = [run["metrics"][name]["value"] for run in parent]
        after = [run["metrics"][name]["value"] for run in change]
        higher = spec["better"] == "higher"
        wins = sum(1 for b, a in zip(before, after) if (a > b if higher else a < b))
        metrics[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": spec.get("bound"),
            "parent": before,
            "change": after,
            "parent_median": statistics.median(before),
            "change_median": statistics.median(after),
            "parent_quartiles": quartiles(before),
            "change_quartiles": quartiles(after),
            "wins": wins,
            "ratio": statistics.median(after) / statistics.median(before),
        }
    return {
        "pairs": len(parent),
        "metrics": metrics,
        "failed_ratio": {
            "parent": [run["meta"]["failed_ratio"] for run in parent],
            "change": [run["meta"]["failed_ratio"] for run in change],
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    known = [spec["name"] for spec in benchmark["workloads"]]
    workloads = known if args.workload == "all" else [args.workload]
    if workloads[0] not in known:
        parser.error(f"unknown workload {args.workload!r}; known: {known}")

    parent_commit = _git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    result = {
        "command": " ".join(["python", "tools/pair.py", *(argv or sys.argv[1:])]),
        "parent": {"rev": args.parent, "commit": parent_commit},
        "change": {
            "commit": _git("rev-parse", "HEAD"),
            "uncommitted_changes": bool(_git("status", "--porcelain", "--untracked-files=no")),
        },
        "seed": args.seed,
        "seconds": args.seconds,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="pair-") as tmp:
        parent_tree = Path(tmp) / "parent"
        _git("worktree", "add", "--detach", str(parent_tree), parent_commit)
        try:
            sides = {"parent": load_runner(parent_tree), "change": load_runner(ROOT)}
            for workload in workloads:
                runs = {"parent": [], "change": []}
                order = []
                for pair in range(args.pairs):
                    first = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                    order.append(f"{first[0]} first")
                    for side in first:
                        run = sides[side].run_child(workload, args.seed, args.seconds, 0)
                        runs[side].append(run)
                        value = run["metrics"]["events_per_s"]["value"]
                        print(f"{workload} pair {pair + 1}/{args.pairs} {side}: "
                              f"events_per_s {value:.1f}", flush=True)
                summary = summarise(benchmark["end_to_end"], runs["parent"], runs["change"])
                summary["order"] = order
                result["workloads"][workload] = summary
                result.setdefault("machine", runs["change"][0]["meta"]["machine"])
        finally:
            _git("worktree", "remove", "--force", str(parent_tree))

    Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    for workload, summary in result["workloads"].items():
        for name, metric in summary["metrics"].items():
            print(f"{workload:15s} {name:13s} parent {metric['parent_median']:10.4g} "
                  f"change {metric['change_median']:10.4g} ratio {metric['ratio']:6.3f} "
                  f"wins {metric['wins']}/{summary['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
