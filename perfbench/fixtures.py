"""Set-up for the benchmark workloads: corpora, configs and model registries.

Everything here is derived from the workload seed, so one seed always gives
the same inputs. A fixture is a directory plus a ``manifest.json`` that tells
the measuring process which CLI calls to make and what each must produce.

Set-up uses the program's own ``synth`` module for the raw login records and
its ``train`` command (through ``loginwatch.cli.main``) for the registries,
so work that a change moves into training or saving shows in ``setup_s``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import shutil
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

from loginwatch import cli, synth

START_DATE = date(2023, 1, 2)
POPULATION_SEED = 0

# The two Okta event types the default SIGN_ON filter keeps. Set-up refuses
# records of any other type, so every input record must produce one score.
ENTRY_EVENT_TYPES = ("policy.evaluate_sign_on", "user.authentication.sso")

# Names of the prior model versions seeded into a train-deep registry: one per
# night of the month before the run, older than any name a save writes today.
HISTORY_NAME = "{day:%Y%m%d}T020000.000000Z.model"


@dataclass(frozen=True)
class TrainDeepSizes:
    # An actor's bootstrap sample averages 176 rows, in the middle of the
    # 161-192 rows that make 6 batches of 32. About one actor in four gets 5
    # or 7 batches by chance; over eight actors the step count of a call then
    # varies by about 3% from seed to seed.
    actors: int = 8
    events_per_actor: int = 220  # about 12 days at the synthetic mean rate
    generated_days: int = 40  # enough days to reach events_per_actor
    epochs: int = 400
    learning_rate: float = 0.1
    history_versions: int = 30
    # The seeded versions' weights do not matter, but training them for some
    # epochs makes set-up mostly computation, which ``speed.py`` corrects
    # well, rather than small file writes, whose time it does not.
    history_epochs: int = 20


@dataclass(frozen=True)
class ScoreSizes:
    actors: int
    history_days: int
    live_days: int
    hourly: bool
    registry_epochs: int = 2


TRAIN_DEEP = TrainDeepSizes()
SCORE_BACKFILL = ScoreSizes(actors=60, history_days=21, live_days=20, hourly=False)
SCORE_HOURLY = ScoreSizes(actors=60, history_days=21, live_days=8, hourly=True)
SCORE_SIZES = {"score-backfill": SCORE_BACKFILL, "score-hourly": SCORE_HOURLY}


def _actor_records(seed: int, actors: int, days: int) -> list[list[dict]]:
    """Raw records per actor, each list in time order.

    The actors' profiles (login rates, apps, working hours, home) come from
    one fixed population, and the seed draws their logins. Every record then
    differs between seeds, but the work a call makes hardly does, so runs
    with different seeds measure the program rather than the mix of actors.
    """
    out = []
    for i in range(1, actors + 1):
        actor = f"u{i:03d}"
        profile = dataclasses.replace(
            synth.generate_actor_profile(POPULATION_SEED, actor),
            rng_seed=synth.generate_actor_profile(seed, actor).rng_seed,
        )
        records = synth.generate_logins(profile, START_DATE, days)
        for record in records:
            if record["eventType"] not in ENTRY_EVENT_TYPES:
                raise ValueError(f"unexpected event type {record['eventType']!r}")
        out.append(records)
    return out


def _write_jsonl(path: Path, records: list[dict]) -> dict[str, int]:
    """Write records in log order (time, then actor); return counts per actor."""
    records = sorted(records, key=lambda r: (r["published"], r["actor"]["id"]))
    counts: dict[str, int] = {}
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            actor = record["actor"]["id"]
            counts[actor] = counts.get(actor, 0) + 1
    return counts


def _write_config(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _cli_train(fixture: Path, input_path: Path, config_path: Path, registry: Path) -> None:
    argv = [
        "train",
        "--input", str(input_path),
        "--config", str(config_path),
        "--registry", str(registry),
        "--summary", str(fixture / "setup-summary.json"),
    ]
    with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"set-up train call failed with exit code {code}")
    summary = json.loads((fixture / "setup-summary.json").read_text(encoding="utf-8"))
    if summary["skipped"]:
        raise RuntimeError(f"set-up skipped actors: {summary['skipped']}")


def build_train_deep(fixture: Path, seed: int) -> dict:
    """The actors' history and a registry holding a month of nightly versions."""
    sizes = TRAIN_DEEP
    records: list[dict] = []
    for actor_records in _actor_records(seed, sizes.actors, sizes.generated_days):
        if len(actor_records) < sizes.events_per_actor:
            raise RuntimeError("synthetic actor produced too few events")
        records.extend(actor_records[: sizes.events_per_actor])
    input_path = fixture / "history.jsonl"
    counts = _write_jsonl(input_path, records)

    config_path = fixture / "config.json"
    history_config = fixture / "history-config.json"
    base = {"seed": seed, "injections": [{"kind": "LOCATION"}]}
    _write_config(
        config_path,
        {**base, "train": {"epochs": sizes.epochs, "learning_rate": sizes.learning_rate}},
    )
    _write_config(
        history_config,
        {**base, "train": {"epochs": sizes.history_epochs, "learning_rate": sizes.learning_rate}},
    )

    # One cheap model per actor, copied under the names of earlier nights.
    scratch_registry = fixture / "history-registry"
    _cli_train(fixture, input_path, history_config, scratch_registry)
    template = fixture / "registry-template"
    history_names = [
        HISTORY_NAME.format(day=START_DATE + timedelta(days=night))
        for night in range(sizes.history_versions)
    ]
    for actor in sorted(counts):
        saved = sorted((scratch_registry / actor).glob("*.model"))
        if len(saved) != 1:
            raise RuntimeError(f"expected one set-up model for {actor}, found {len(saved)}")
        payload = saved[0].read_bytes()
        actor_dir = template / actor
        actor_dir.mkdir(parents=True)
        for name in history_names:
            (actor_dir / name).write_bytes(payload)
    shutil.rmtree(scratch_registry)

    return {
        "workload": "train-deep",
        "config": str(config_path),
        "registry_template": str(template),
        "history_names": history_names,
        "calls": [{"input": str(input_path), "events": counts}],
        "sizes": {
            "actors": sizes.actors,
            "events_per_actor": sizes.events_per_actor,
            "epochs": sizes.epochs,
            "learning_rate": sizes.learning_rate,
            "history_versions": sizes.history_versions,
        },
    }


def build_score(fixture: Path, seed: int, workload: str) -> dict:
    """A registry trained on the first days, and the later days as live input."""
    sizes = SCORE_SIZES[workload]
    cutoff = (START_DATE + timedelta(days=sizes.history_days)).isoformat()
    history: list[dict] = []
    live: list[dict] = []
    for actor_records in _actor_records(seed, sizes.actors, sizes.history_days + sizes.live_days):
        for record in actor_records:
            (history if record["published"] < cutoff else live).append(record)

    history_path = fixture / "history.jsonl"
    _write_jsonl(history_path, history)
    config_path = fixture / "config.json"
    # retrain_f1_floor 0 keeps every stored model ACTIVE, so no score call
    # retrains; the cheap epoch count keeps set-up short, and scoring cost does
    # not depend on the weight values. The slowest synthetic actor logs about
    # 230 events in 21 days, so a floor of 100 trains every actor on any seed.
    _write_config(
        config_path,
        {
            "seed": seed,
            "min_events": 100,
            "retrain_f1_floor": 0.0,
            "train": {"epochs": sizes.registry_epochs},
        },
    )
    registry = fixture / "registry"
    _cli_train(fixture, history_path, config_path, registry)

    calls = []
    if sizes.hourly:
        by_hour: dict[str, list[dict]] = {}
        for record in live:
            by_hour.setdefault(record["published"][:13], []).append(record)
        hours_dir = fixture / "hours"
        hours_dir.mkdir()
        for hour in sorted(by_hour):
            path = hours_dir / f"{hour.replace('-', '').replace('T', '-')}.jsonl"
            calls.append({"input": str(path), "events": _write_jsonl(path, by_hour[hour])})
    else:
        live_path = fixture / "live.jsonl"
        calls.append({"input": str(live_path), "events": _write_jsonl(live_path, live)})

    manifest = {
        "workload": workload,
        "config": str(config_path),
        "registry": str(registry),
        "calls": calls,
        "sizes": {
            "actors": sizes.actors,
            "history_days": sizes.history_days,
            "live_days": sizes.live_days,
            "history_events": len(history),
            "live_events": len(live),
            "calls": len(calls),
            "registry_epochs": sizes.registry_epochs,
            "live_start": cutoff,
        },
    }
    if sizes.hourly:
        # Not replayed: the score workflow raises WorkflowError on an empty batch.
        manifest["skipped_empty_hours"] = sizes.live_days * 24 - len(calls)
    return manifest


def build(fixture: Path, seed: int, workload: str) -> dict:
    """Build one workload's fixture in an empty directory; return its manifest."""
    fixture.mkdir(parents=True)
    if workload == "train-deep":
        manifest = build_train_deep(fixture, seed)
    else:
        manifest = build_score(fixture, seed, workload)
    (fixture / "manifest.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    return manifest
