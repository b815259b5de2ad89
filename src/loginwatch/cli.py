"""Command-line entry points.

Subcommands mirror the pipeline stages: ``synth`` makes a corpus, ``ingest``
flattens raw logs, ``profile`` builds app supersets, ``train`` fits and
registers per-actor models, ``score`` runs stored models over new events,
and ``report`` dumps per-actor threshold and loss curves as CSV, skipping
(with a warning) an actor whose newest model is refused or whose stored
metrics hold no F1 curve of numbers for the primary injection kind.
``ingest`` prints how many input records it rejected; ``profile``,
``train`` and ``score`` log that count as a warning.

Failures exit non-zero with a one-line JSON error object on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
from datetime import date
from pathlib import Path

from loginwatch import synth
from loginwatch.apps import build_superset, login_frequencies
from loginwatch.events import (
    FilterMode,
    IngestStats,
    filter_entry_events,
    load_events,
    write_events,
)
from loginwatch.model import is_number_list
from loginwatch.pipeline import (
    PipelineConfig,
    primary_sweep,
    run_score_workflow,
    run_train_workflow,
)
from loginwatch.registry import ModelRegistry, RegistryIntegrityError

logger = logging.getLogger(__name__)


def _load_config(args: argparse.Namespace) -> PipelineConfig:
    data = {}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    config = PipelineConfig.from_dict(data)
    # Flags beat file values.
    if getattr(args, "seed", None) is not None:
        config.seed = args.seed
    return config


def _cmd_synth(args: argparse.Namespace) -> int:
    records = synth.generate_corpus(
        actor_count=args.actors,
        days=args.days,
        seed=args.seed,
        start_date=date.fromisoformat(args.start),
        location_jitter_km=args.jitter_km,
    )
    count = synth.write_jsonl(records, args.out)
    print(json.dumps({"written": count, "path": str(args.out)}))
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    events, stats = load_events(args.input)
    if args.filter:
        events = filter_entry_events(events, FilterMode(args.filter))
    written = write_events(events, args.out)
    print(
        json.dumps(
            {
                "lines": stats.lines,
                "parsed": stats.parsed,
                "rejected": stats.rejected,
                "written": written,
                "path": str(args.out),
            }
        )
    )
    return 0


def _log_rejected(stats: IngestStats) -> None:
    if stats.rejected:
        logger.warning("%d records were rejected during ingest", stats.rejected)


def _cmd_profile(args: argparse.Namespace) -> int:
    events, stats = load_events(args.input)
    frequencies = login_frequencies(events, z=args.z)
    superset = build_superset(frequencies, threshold=args.threshold)
    superset.to_jsonl(args.out)
    print(
        json.dumps(
            {
                "actors": len(superset.actors()),
                "rows": len(frequencies),
                "path": str(args.out),
            }
        )
    )
    _log_rejected(stats)
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    config = _load_config(args)
    events, stats = load_events(args.input)
    registry = ModelRegistry(args.registry)
    result = run_train_workflow(events, config, registry)
    summary = result.to_summary_json()
    if args.summary:
        Path(args.summary).write_text(summary + "\n", encoding="utf-8")
    print(summary)
    _log_rejected(stats)
    return 0


def _cmd_score(args: argparse.Namespace) -> int:
    config = _load_config(args)
    events, stats = load_events(args.input)
    registry = ModelRegistry(args.registry)
    result = run_score_workflow(events, config, registry)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            for actor_id in sorted(result.reports):
                handle.write(result.reports[actor_id].to_jsonl())
    summary = result.to_summary_json()
    if args.summary:
        Path(args.summary).write_text(summary + "\n", encoding="utf-8")
    print(summary)
    _log_rejected(stats)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    registry = ModelRegistry(args.registry)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    actors = registry.actors()
    written, unreadable = [], []
    for actor_id in actors:
        try:
            entry = registry.load(actor_id)
            try:  # metrics are free-form in a document
                curve = primary_sweep(entry.metrics)["f1_curve"]
            except (LookupError, TypeError):
                curve = None
            if not is_number_list(curve):
                newest = registry.entry_paths(actor_id)[-1]
                raise RegistryIntegrityError(
                    f"{newest} holds no primary-kind f1_curve of numbers"
                )
        except RegistryIntegrityError as exc:
            logger.warning("cannot report %s: %s", actor_id, exc)
            unreadable.append(actor_id)
            continue
        curve_path = out_dir / f"f1_curve_{actor_id}.csv"
        with open(curve_path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["n", "f1"])
            writer.writerows([f"{i / 10:.1f}", f"{value:.6f}"] for i, value in enumerate(curve))
        loss_path = out_dir / f"loss_epochs_{actor_id}.csv"
        with open(loss_path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["epoch", "mean_loss"])
            losses = enumerate(entry.model.epoch_losses, start=1)
            writer.writerows([epoch, f"{value:.10f}"] for epoch, value in losses)
        written.extend([str(curve_path), str(loss_path)])
    print(json.dumps({"actors": len(actors), "files": written, "unreadable": unreadable}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loginwatch",
        description="Per-actor login behavior baselines and anomaly scoring.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic login corpus")
    p_synth.add_argument("--actors", type=int, default=18)
    p_synth.add_argument("--days", type=int, default=90)
    p_synth.add_argument("--seed", type=int, default=7)
    p_synth.add_argument("--start", default="2023-01-02", help="first day (ISO date)")
    p_synth.add_argument("--jitter-km", type=float, default=30.0)
    p_synth.add_argument("--out", required=True)
    p_synth.set_defaults(func=_cmd_synth)

    p_ingest = sub.add_parser("ingest", help="flatten raw logs to event JSONL")
    p_ingest.add_argument("--input", required=True)
    p_ingest.add_argument("--out", required=True)
    p_ingest.add_argument(
        "--filter", choices=[m.value for m in FilterMode], default=None
    )
    p_ingest.set_defaults(func=_cmd_ingest)

    p_profile = sub.add_parser("profile", help="build per-actor app supersets")
    p_profile.add_argument("--input", required=True)
    p_profile.add_argument("--out", required=True)
    p_profile.add_argument("--z", type=float, default=1.96)
    p_profile.add_argument("--threshold", type=float, default=0.1)
    p_profile.set_defaults(func=_cmd_profile)

    p_train = sub.add_parser("train", help="train and register per-actor models")
    p_train.add_argument("--input", required=True)
    p_train.add_argument("--config", help="pipeline config JSON")
    p_train.add_argument("--registry", default="registry", help="registry directory")
    p_train.add_argument("--seed", type=int, help="override workflow seed")
    p_train.add_argument("--summary", help="write the summary JSON here too")
    p_train.set_defaults(func=_cmd_train)

    p_score = sub.add_parser("score", help="score events with stored models")
    p_score.add_argument("--input", required=True)
    p_score.add_argument("--config", help="pipeline config JSON")
    p_score.add_argument("--registry", default="registry", help="registry directory")
    p_score.add_argument("--seed", type=int, help="override workflow seed")
    p_score.add_argument("--out", help="per-event report JSONL")
    p_score.add_argument("--summary", help="write the summary JSON here too")
    p_score.set_defaults(func=_cmd_score)

    p_report = sub.add_parser("report", help="export per-actor curves as CSV")
    p_report.add_argument("--registry", required=True)
    p_report.add_argument("--out-dir", required=True)
    p_report.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
