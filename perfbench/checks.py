"""Output checks for every benchmark call, and a self-test that they can fail.

Each check returns a list of problems; a call with any problem, a non-zero
exit code or an exception counts as failed. The score checks read the CLI's
JSONL output line by line and the stored models' documents directly, so they
do not go through the code paths they are checking.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterable, Mapping

from loginwatch.registry import ModelRegistry

MAX_PROBLEMS = 5


def stored_thresholds(registry: Path) -> dict[str, tuple[float, float, float]]:
    """(train_mu, train_sigma, chosen_n) of each actor's newest model document."""
    out = {}
    for actor_dir in sorted(p for p in registry.iterdir() if p.is_dir()):
        newest = sorted(actor_dir.glob("*.model"))[-1]
        model = json.loads(newest.read_bytes())["model"]
        out[actor_dir.name] = (model["train_mu"], model["train_sigma"], model["chosen_n"])
    return out


def check_score_records(
    lines: Iterable[str],
    expected: Mapping[str, int],
    thresholds: Mapping[str, tuple[float, float, float]],
) -> list[str]:
    """One finite, correctly classified record per input event of each actor.

    A record is correct when its classification equals
    ``loss > mu + n * sigma`` under the actor's stored model.
    """
    problems: list[str] = []
    seen = {actor: bytearray(count) for actor, count in expected.items()}
    for line in lines:
        record = json.loads(line)
        actor = record["actor_id"]
        position = record["position"]
        if actor not in seen or not 0 <= position < len(seen[actor]):
            problems.append(f"unexpected record {actor}#{position}")
            continue
        if seen[actor][position]:
            problems.append(f"duplicate record {actor}#{position}")
        seen[actor][position] = 1
        loss = record["loss"]
        if not math.isfinite(loss):
            problems.append(f"non-finite loss {loss} for {actor}#{position}")
            continue
        mu, sigma, n = thresholds[actor]
        want = "ANOMALY" if loss > mu + n * sigma else "NORMAL"
        if record["classification"] != want:
            problems.append(
                f"{actor}#{position}: classified {record['classification']}, "
                f"loss {loss} against mu {mu} + {n} * sigma {sigma} gives {want}"
            )
    for actor, marks in seen.items():
        missing = len(marks) - sum(marks)
        if missing:
            problems.append(f"{actor}: {missing} of {len(marks)} events have no record")
    return problems


def check_score_summary(summary: dict, expected: Mapping[str, int]) -> list[str]:
    problems = []
    if summary.get("retrained") != []:
        problems.append(f"retrained {summary.get('retrained')}")
    if summary.get("unscorable") != []:
        problems.append(f"unscorable {summary.get('unscorable')}")
    counts = {a: v["event_count"] for a, v in summary.get("actors", {}).items()}
    if counts != dict(expected):
        problems.append("summary event counts differ from the input")
    return problems


def check_score_call(
    out_path: Path,
    summary_path: Path,
    expected: Mapping[str, int],
    thresholds: Mapping[str, tuple[float, float, float]],
) -> list[str]:
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    with open(out_path, "r", encoding="utf-8") as handle:
        problems = check_score_records(handle, expected, thresholds)
    return problems + check_score_summary(summary, expected)


def check_train_call(
    summary_path: Path,
    registry: Path,
    expected: Mapping[str, int],
    history_names: Iterable[str],
) -> tuple[list[str], dict]:
    """Every actor trained and saved a model that reloads with a valid checksum."""
    problems = []
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    for actor, reason in summary.get("skipped", {}).items():
        problems.append(f"{actor} skipped: {reason}")
    old = set(history_names)
    store = ModelRegistry(registry)
    for actor in sorted(expected):
        report = summary["actors"].get(actor)
        if report is None:
            problems.append(f"{actor}: no model in the summary")
            continue
        paths = store.entry_paths(actor)
        if not paths or paths[-1].name in old:
            problems.append(f"{actor}: no model newer than the seeded history was saved")
            continue
        try:
            entry = store.load(actor)  # verifies the checksum
        except Exception as exc:  # noqa: BLE001 - any reload failure is a failed call
            problems.append(f"{actor}: reload failed: {type(exc).__name__}: {exc}")
            continue
        if entry.model.train_mu != report["train_mu"]:
            problems.append(f"{actor}: reloaded train_mu differs from the summary")
    return problems, summary


def self_test(scratch: Path) -> None:
    """Planted faults must be caught; raises AssertionError otherwise.

    ``scratch`` is an empty directory the test may write to.
    """
    thresholds = {"a": (1.0, 0.5, 2.0), "b": (0.2, 0.0, 0.0)}
    expected = {"a": 3, "b": 2}
    good = [
        {"actor_id": "a", "position": 0, "loss": 2.5, "classification": "ANOMALY"},
        {"actor_id": "a", "position": 1, "loss": 2.0, "classification": "NORMAL"},
        {"actor_id": "a", "position": 2, "loss": 0.1, "classification": "NORMAL"},
        {"actor_id": "b", "position": 0, "loss": 0.2, "classification": "NORMAL"},
        {"actor_id": "b", "position": 1, "loss": 0.3, "classification": "ANOMALY"},
    ]

    def problems(records: list[dict]) -> list[str]:
        return check_score_records((json.dumps(r) for r in records), expected, thresholds)

    if problems(good):
        raise AssertionError(f"clean records flagged: {problems(good)}")
    wrong = [dict(r) for r in good]
    wrong[1]["classification"] = "ANOMALY"
    if len(problems(wrong)) != 1:
        raise AssertionError("a planted wrong classification was not caught")
    if len(problems(good[:-1])) != 1:
        raise AssertionError("a planted missing record was not caught")
    nan = [dict(r) for r in good]
    nan[2]["loss"] = float("nan")
    if len(problems(nan)) != 1:
        raise AssertionError("a planted non-finite loss was not caught")
    summary = {"actors": {"a": {"event_count": 3}, "b": {"event_count": 2}},
               "retrained": ["a"], "unscorable": []}
    if len(check_score_summary(summary, expected)) != 1:
        raise AssertionError("a planted retrain was not caught")

    # A train call that saved nothing leaves a seeded version newest. The
    # name alone must fail the check, before the document is read.
    history = "20230102T020000.000000Z.model"
    (scratch / "registry" / "a").mkdir(parents=True)
    (scratch / "registry" / "a" / history).write_text("{}", encoding="utf-8")
    (scratch / "summary.json").write_text(
        json.dumps({"skipped": {}, "actors": {"a": {"train_mu": 0.5}}}), encoding="utf-8"
    )
    stale, _ = check_train_call(scratch / "summary.json", scratch / "registry", {"a": 1}, [history])
    if len(stale) != 1:
        raise AssertionError("a planted stale model was not caught")
