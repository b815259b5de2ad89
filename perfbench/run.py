"""Benchmark for loginwatch's train and score paths.

Run from the root of a checkout:

    python3 perfbench/run.py --workload score-backfill --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Workloads (sizes in ``fixtures.py``):

- ``train-deep``: one ``loginwatch train`` call over 8 actors with 220
  events each, at the acceptance settings (400 epochs, learning rate 0.1,
  LOCATION injection), into registries that already hold 30 nightly
  versions per actor.
- ``score-backfill``: one ``loginwatch score`` call over the 30 days of
  logins that follow the 21 days a 60-actor registry was trained on.
- ``score-hourly``: the 8 days after the registry's 21 replayed as one
  ``score`` call per non-empty UTC hour, in time order. Empty hours are
  skipped and counted, not called: the score workflow raises
  ``WorkflowError`` on an empty batch.

Each run builds its inputs from ``--seed`` in a child process, several times,
and reports the median build time as ``setup_s``. It then calls
``loginwatch.cli.main`` in a closed loop, in whole passes over the workload's
calls, until ``--seconds`` have passed, and checks every call's output (see
``checks.py``); a call that fails a check, exits non-zero or raises counts in
``failed``.

Times are corrected for the machine's changing speed (see ``speed.py``); the
raw wall times are printed beside them. Every workload reports the same
end-to-end metrics, over its untraced calls: ``events_per_s`` (input events
per second of call time; for train-deep the training events, so it is actors
per second times 220), ``peak_rss_mb`` (peak resident memory of the
measuring process; set-up runs in a child) and ``setup_s`` (median of the
set-up repetitions). The call and pass counts, ``failed / attempted``,
``call_ms_p50`` (median time of one CLI call; for score-hourly, of one hourly
batch) and, where a run has at least 100 calls, ``call_ms_p90`` are printed
in the table: the p50 of hourly batches depends on which hours a seed makes
busy, too much to hold it to a bound. train-deep's mean validation F1 and the
sha256 of its deterministic train summary are in the ``meta`` line, for
information.

Every run first runs ``checks.self_test()``, which plants faults and fails the
run if the checks miss them. With ``--trace 0`` the last line of standard
output is the result with the end-to-end metrics; with ``--trace 1`` every
call runs once untraced and once traced, the result carries the per-layer
metrics and the traced-minus-untraced time as the tracing overhead, and the
spans are written to ``.perfbench/traces/``. Earlier lines give a readable
table and a ``meta`` line with the machine, seed and workload sizes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("train-deep", "score-backfill", "score-hourly")
# Set-up repetitions, so that the median is steady: train-deep's set-up takes
# about 0.5 s at reference speed, the score workloads' about 4 s.
SETUP_REPS = {"train-deep": 5, "score-backfill": 3, "score-hourly": 3}
SETUP_TIMEOUT_S = 150

if not (SRC / "loginwatch" / "__init__.py").is_file():
    sys.exit(f"perfbench: no loginwatch sources under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402

import checks  # noqa: E402
import fixtures  # noqa: E402
from measure import Workload, percentile  # noqa: E402
from speed import SpeedSampler  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

WORK_ROOT = ROOT / ".perfbench"


def _setup_child(args: argparse.Namespace) -> int:
    """Build the fixture several times; print the corrected and raw times as JSON."""
    seconds, wall = [], []
    base = Path(args.dir)
    with SpeedSampler() as speed:
        for rep in range(SETUP_REPS[args.workload]):
            target = base / f"rep-{rep}"
            start = perf_counter()
            fixtures.build(target, args.seed, args.workload)
            end = perf_counter()
            seconds.append(speed.corrected(start, end))
            wall.append(speed.raw(start, end))
            if rep:
                shutil.rmtree(base / f"rep-{rep - 1}")
    print(json.dumps({"seconds": seconds, "wall": wall, "fixture": str(target)}))
    return 0


def _set_up(workload: str, seed: int, work: Path) -> tuple[list[float], list[float], Path]:
    """Run set-up in a child, so its memory stays out of ``peak_rss_mb``."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-child",
            "--workload", workload, "--seed", str(seed), "--dir", str(work / "fixture")]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"set-up failed with exit code {proc.returncode}")
    reply = json.loads(proc.stdout.strip().splitlines()[-1])
    return reply["seconds"], reply["wall"], Path(reply["fixture"])


def _end_to_end(outcome, setup: list[float], setup_wall: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics for the result, and extra figures for the table only.

    The 90th percentile is given only where at least ten calls lie beyond
    it; train-deep and score-backfill make too few calls in a run.
    """
    ms = [d * 1000.0 for d in outcome.durations]
    wall_ms = [d * 1000.0 for d in outcome.wall]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "events_per_s": (outcome.events / sum(outcome.durations), "events/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    table_only = {
        "calls": (len(ms), "count"),
        "call_ms_p50": (statistics.median(ms), "ms"),
        "passes": (outcome.passes, "count"),
        "machine.slowdown": (sum(outcome.wall) / sum(outcome.durations), "ratio"),
        "wall.setup_s": (statistics.median(setup_wall), "s"),
        "wall.events_per_s": (outcome.events / sum(outcome.wall), "events/s"),
        "wall.call_ms_p50": (statistics.median(wall_ms), "ms"),
    }
    if len(ms) >= 100:
        table_only["call_ms_p90"] = (percentile(ms, 90), "ms")
        table_only["wall.call_ms_p90"] = (percentile(wall_ms, 90), "ms")
    return metrics, table_only


def _per_layer(tracer: Tracer, outcome) -> tuple[dict, dict]:
    """Per-layer metrics for the result, and extra figures for the table only.

    Layer self times are over the traced calls. Timings of operations that
    only one kind of workload performs (training, saving, loading) go to the
    table and the trace file, where a workload without them shows 0.
    """
    wall = sum(outcome.traced)
    untraced = sum(outcome.wall)
    counts = tracer.counts
    encode_calls = tracer.op("encoding.encode")[0]
    saves = tracer.op("registry.save")[0]
    filtered = counts["events.filtered"]
    metrics = {
        "trace.calls": (len(outcome.traced), "count"),
        "trace.wall_s": (wall, "s"),
        "trace.overhead_ratio": (wall / untraced - 1.0, "ratio"),
    }
    for layer in LAYERS:
        if layer != "inject":  # inject runs only when training
            metrics[f"{layer}.self_s"] = (tracer.self_seconds(layer), "s")
    metrics.update({
        "events.load_s": (tracer.op("events.load")[1], "s"),
        "events.parsed": (counts["events.parsed"], "count"),
        "events.rejected": (counts["events.rejected"], "count"),
        "geo.geohash_calls": (tracer.op("geo.geohash")[0], "count"),
        "geo.geohash_calls_per_event": (tracer.op("geo.geohash")[0] / max(filtered, 1), "ratio"),
        "apps.known_app_calls": (tracer.op("apps.known_app")[0], "count"),
        "encoding.encode_s": (tracer.op("encoding.encode")[1], "s"),
        "encoding.encode_calls": (encode_calls, "count"),
        "encoding.unique_share": (counts["encoding.unique_events"] / max(encode_calls, 1), "ratio"),
        "pipeline.sample_rows": (counts["pipeline.sample_rows"], "count"),
        "inject.injected": (counts["inject.injected"], "count"),
        "model.losses_s": (tracer.op("model.losses")[1], "s"),
        "model.loss_calls": (tracer.op("model.losses")[0], "count"),
        "model.loss_rows": (counts["model.loss_rows"], "count"),
        "model.steps": (counts["model.steps"], "count"),
        "detect.sweep_calls": (tracer.op("detect.sweep")[0], "count"),
        "detect.score_calls": (tracer.op("detect.score")[0], "count"),
        "registry.saves": (saves, "count"),
        "registry.docs_read_per_save": (counts["registry.save.reads"] / max(saves, 1), "ratio"),
        "registry.bytes_written": (counts["registry.bytes_written"], "B"),
        "registry.loads": (tracer.op("registry.load")[0], "count"),
        "registry.bytes_read": (counts["registry.load.bytes_read"], "B"),
    })
    train_self = tracer.op("model.train")[2]
    loads = tracer.durations.get("registry.load", [])
    table_only = {f"share.{layer}": (tracer.self_seconds(layer) / wall, "ratio")
                  for layer in LAYERS}
    table_only.update({
        "model.train_s": (tracer.op("model.train")[1], "s"),
        "model.step_us": (train_self / max(counts["model.steps"], 1) * 1e6, "us"),
        "detect.sweep_s": (tracer.op("detect.sweep")[1], "s"),
        "detect.score_s": (tracer.op("detect.score")[1], "s"),
        "registry.save_s": (tracer.op("registry.save")[1], "s"),
        "registry.load_s": (tracer.op("registry.load")[1], "s"),
        "registry.load_ms_p50": (statistics.median(loads) * 1000.0 if loads else 0.0, "ms"),
        "inject.inject_s": (tracer.op("inject.inject")[1], "s"),
        "pipeline.sample_s": (tracer.op("pipeline.sample")[1], "s"),
        "apps.superset_s": (tracer.op("apps.superset")[1], "s"),
        "encoding.build_indices_s": (tracer.op("encoding.build_indices")[1], "s"),
        "cli.untraced_wall_s": (untraced, "s"),
        "trace.unattributed_s": (wall - sum(tracer.self_seconds(l) for l in LAYERS), "s"),
    })
    return metrics, table_only


def _machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def _print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:16.6g} {unit}")


def run_one(args: argparse.Namespace) -> int:
    work = WORK_ROOT / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        checks.self_test(work / "self-test")
        setup, setup_wall, fixture = _set_up(args.workload, args.seed, work)
        manifest = json.loads((fixture / "manifest.json").read_text(encoding="utf-8"))
        workload = Workload(manifest, work)
        tracer = Tracer() if args.trace else None
        outcome = workload.run(args.seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": _machine(),
        "sizes": manifest["sizes"],
        "setup_s": setup,
        "setup_wall_s": setup_wall,
        "passes": outcome.passes,
        "call_ms": [round(d * 1000.0, 2) for d in outcome.durations],
        "call_wall_ms": [round(d * 1000.0, 2) for d in outcome.wall],
        "failed_ratio": outcome.failed / max(outcome.attempted, 1),
        "problems": outcome.problems,
    }
    if "skipped_empty_hours" in manifest:
        meta["skipped_empty_hours"] = manifest["skipped_empty_hours"]
    if outcome.val_f1:
        meta["val_f1_mean"] = sum(outcome.val_f1) / len(outcome.val_f1)
        meta["summary_sha256"] = sorted(outcome.summary_sha256)

    if args.trace:
        metrics, table_only = _per_layer(tracer, outcome)
        traces = WORK_ROOT / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        path = traces / f"{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({
            "meta": meta,
            "per_layer": metrics,
            "per_operation": table_only,
            "trace": tracer.to_json(),
        }), encoding="utf-8")
        meta["trace_file"] = str(path.relative_to(ROOT))
        _print_table(f"{args.workload} per-layer (traced calls)", metrics)
        _print_table(f"{args.workload} per-operation (table only)", table_only)
    else:
        metrics, table_only = _end_to_end(outcome, setup, setup_wall)
        _print_table(f"{args.workload} end-to-end", metrics)
        _print_table(f"{args.workload} (table only)", table_only)
    print(f"  {'failed_ratio':32s} {meta['failed_ratio']:16.6g} failed/attempted")
    if "skipped_empty_hours" in meta:
        print(f"  {'skipped_empty_hours':32s} {meta['skipped_empty_hours']:16d} count")
    print(json.dumps({"meta": meta}, sort_keys=True))
    correct = outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in its own process; return its result with its meta."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"{workload} seed {seed}: exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["meta"] = json.loads(lines[-2])["meta"]
    result["table"] = lines[:-2]
    return result


def run_all(args: argparse.Namespace) -> int:
    """Run every workload in its own process and print one table."""
    results = {name: run_child(name, args.seed, args.seconds, args.trace) for name in WORKLOADS}
    for name, result in results.items():
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        print("\n".join(result["table"]))
    print(json.dumps({name: {k: r[k] for k in ("correct", "attempted", "failed", "metrics")}
                      for name, r in results.items()}))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_child:
        return _setup_child(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
