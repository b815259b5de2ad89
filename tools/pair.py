"""Paired benchmark runs of a parent revision against this checkout.

Run from the root of a checkout:

    python tools/pair.py --parent REV --pairs 10 --workload train-deep --seconds 10 --out BENCH_8.json

The parent revision's committed files are unpacked (``git archive``) into a
temporary directory, which leaves no state behind in the repository. Each
pair runs one workload once on the parent and once on this checkout, through
each tree's own ``perfbench/run.py`` (its ``run_child``, so every run is a
fresh process that builds its inputs from its own sources); which side runs
first alternates from pair to pair, so a drift in the machine's speed does
not favour one side. All runs of a workload use one seed.

A run that exits non-zero is recorded under its workload's ``crashed`` list
(side, pair, attempt, exit code, last stderr line), and its pair is run again
from the start, both sides in the same order, at most ``RERUNS`` times. If a
pair still fails, the pairs measured so far are written and the command
exits 1.

The output records the machine (nproc, python, numpy), the git revisions
and, per workload and for each end-to-end metric that ``BENCHMARK.json``
gates, every run's value on both sides, their medians and quartiles, the
number of pairs the change wins, and each run's ``failed_ratio``.
``--workload all`` runs every workload of ``BENCHMARK.json`` in turn.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# How many times a pair with a crashed run is run again before giving up.
RERUNS = 2


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


def run_once(runner, workload: str, seed: int, seconds: float) -> tuple[dict | None, dict | None]:
    """One ``runner.run_child`` call: ``(result, None)``, or ``(None, crash)``.

    ``run_child`` writes a failed run's stderr and raises; the stderr is
    passed on, and its last line and the exit code go into ``crash``.
    """
    captured = io.StringIO()
    try:
        with contextlib.redirect_stderr(captured):
            return runner.run_child(workload, seed, seconds, 0), None
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        code = re.search(r"exit code (-?\d+)", str(exc))
        lines = captured.getvalue().strip().splitlines() or [str(exc)]
        return None, {
            "exit_code": int(code.group(1)) if code else None,
            "stderr": lines[-1],
        }
    finally:
        sys.stderr.write(captured.getvalue())


def run_pairs(sides: dict, workload: str, pairs: int, seed: int, seconds: float) -> dict:
    """Alternating pairs of one workload; a pair with a crashed run is run again.

    Returns the complete pairs' runs per side, the order of each pair, every
    crash, and ``complete``: whether all ``pairs`` pairs were measured.
    """
    runs = {"parent": [], "change": []}
    order, crashed = [], []
    for pair in range(pairs):
        first = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for attempt in range(1, RERUNS + 2):
            results = {}
            for side in first:
                run, crash = run_once(sides[side], workload, seed, seconds)
                if crash is not None:
                    crashed.append({"side": side, "pair": pair + 1, "attempt": attempt, **crash})
                    print(f"{workload} pair {pair + 1}/{pairs} {side}: crashed "
                          f"(exit code {crash['exit_code']}): {crash['stderr']}", flush=True)
                    break
                results[side] = run
                value = run["metrics"]["events_per_s"]["value"]
                print(f"{workload} pair {pair + 1}/{pairs} {side}: "
                      f"events_per_s {value:.1f}", flush=True)
            if len(results) == 2:
                break
        else:
            return {"runs": runs, "order": order, "crashed": crashed, "complete": False}
        order.append(f"{first[0]} first")
        for side, run in results.items():
            runs[side].append(run)
    return {"runs": runs, "order": order, "crashed": crashed, "complete": True}


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
    complete = True
    with tempfile.TemporaryDirectory(prefix="pair-") as tmp:
        parent_tree = Path(tmp) / "parent"
        parent_tree.mkdir()
        archive = Path(tmp) / "parent.tar"
        _git("archive", "--output", str(archive), parent_commit)
        subprocess.run(["tar", "-x", "-f", str(archive), "-C", str(parent_tree)], check=True)
        sides = {"parent": load_runner(parent_tree), "change": load_runner(ROOT)}
        for workload in workloads:
            measured = run_pairs(sides, workload, args.pairs, args.seed, args.seconds)
            runs = measured["runs"]
            summary = {"pairs": 0}
            if runs["change"]:
                summary = summarise(benchmark["end_to_end"], runs["parent"], runs["change"])
                result.setdefault("machine", runs["change"][0]["meta"]["machine"])
            summary["order"] = measured["order"]
            summary["crashed"] = measured["crashed"]
            result["workloads"][workload] = summary
            if not measured["complete"]:
                complete = False
                print(f"{workload}: a pair failed {RERUNS + 1} times; stopping", file=sys.stderr)
                break

    Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    for workload, summary in result["workloads"].items():
        for name, metric in summary.get("metrics", {}).items():
            print(f"{workload:15s} {name:13s} parent {metric['parent_median']:10.4g} "
                  f"change {metric['change_median']:10.4g} ratio {metric['ratio']:6.3f} "
                  f"wins {metric['wins']}/{summary['pairs']}")
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
