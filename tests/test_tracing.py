"""Tests that the benchmark's tracer still finds every name it wraps, and
that its counting hooks still read what those names return.

``perfbench/tracing.py`` wraps program functions by module and attribute
name. A rename in the program, or a new result shape, would otherwise
surface only when the traced benchmark runs; here it fails the test suite.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import pathlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(module_name: str, attr: str):
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return getattr(owner, leaf)


def test_install_wraps_every_target_and_uninstall_restores_it():
    tracing = load_tracing()
    registry = importlib.import_module("loginwatch.registry")
    originals = {
        (module_name, attr): resolve(module_name, attr)
        for _, module_name, attr, _ in tracing.TARGETS
    }
    read_bytes = pathlib.Path.read_bytes
    atomic_write = registry._atomic_write

    uninstall = tracing.Tracer().install()  # AttributeError on a missing target
    try:
        for (module_name, attr), original in originals.items():
            wrapped = resolve(module_name, attr)
            assert wrapped is not original, f"{module_name}.{attr} not wrapped"
            assert wrapped.__wrapped__ is original
        assert pathlib.Path.read_bytes is not read_bytes
        assert registry._atomic_write is not atomic_write
    finally:
        uninstall()

    for (module_name, attr), original in originals.items():
        assert resolve(module_name, attr) is original, f"{module_name}.{attr} not restored"
    assert pathlib.Path.read_bytes is read_bytes
    assert registry._atomic_write is atomic_write


def test_hooks_count_what_a_train_and_a_score_call_did(tmp_path):
    # A result shape that a hook can no longer read would otherwise show
    # only when the traced benchmark runs.
    tracing = load_tracing()
    cli = importlib.import_module("loginwatch.cli")
    synth = importlib.import_module("loginwatch.synth")
    history, live = tmp_path / "history.jsonl", tmp_path / "live.jsonl"
    history_lines = synth.write_jsonl(synth.generate_corpus(2, 30, seed=2), history)
    live_lines = synth.write_jsonl(synth.generate_corpus(2, 3, seed=4), live)
    config = tmp_path / "config.json"
    # a floor of 0 keeps every model ACTIVE, so the score call retrains none
    config.write_text(
        json.dumps({"min_events": 100, "retrain_f1_floor": 0.0, "train": {"epochs": 2}})
    )
    common = ["--config", str(config), "--registry", str(tmp_path / "registry")]
    train_summary, score_summary = tmp_path / "train.json", tmp_path / "score.json"

    tracer = tracing.Tracer()
    uninstall = tracer.install()
    try:
        # cli.main turns an exception, a hook's included, into exit code 1
        assert tracer.run_call(0, cli.main, ["train", "--input", str(history), *common,
                                             "--summary", str(train_summary)]) == 0
        assert tracer.run_call(1, cli.main, ["score", "--input", str(live), *common,
                                             "--summary", str(score_summary)]) == 0
    finally:
        uninstall()

    trained = json.loads(train_summary.read_text())["actors"]
    scored = json.loads(score_summary.read_text())["actors"]
    assert len(trained) == len(scored) == 2
    injected = [round(0.1 * actor["val_size"]) for actor in trained.values()]
    assert injected == [actor["confusion"]["tp"] + actor["confusion"]["fn"]
                        for actor in trained.values()]
    assert tracer.counts["inject.injected"] == sum(injected)
    assert tracer.counts["events.parsed"] == history_lines + live_lines
    # train scores each actor's sample (for mu and sigma) and validation set
    assert tracer.counts["model.loss_rows"] == sum(
        actor["sample_size"] + actor["val_size"] for actor in trained.values()
    ) + sum(actor["event_count"] for actor in scored.values())
