"""Tests that the benchmark's output checks still read what the program writes.

``perfbench/checks.py`` reads stored model documents directly and reloads
them through the registry. A change to the registry's file format would
otherwise surface only when the benchmark runs; here it fails the test suite.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from loginwatch.model import TrainConfig
from loginwatch.pipeline import run_train_workflow
from loginwatch.registry import ModelRegistry

from test_pipeline import crafted_events, fast_config

CHECKS = Path(__file__).resolve().parent.parent / "perfbench" / "checks.py"


def load_checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", CHECKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_checks_read_a_registry_the_program_wrote(tmp_path):
    checks = load_checks()
    registry = tmp_path / "registry"
    events = crafted_events("u1", 120) + crafted_events("u2", 120)
    config = fast_config(train=TrainConfig(epochs=2))
    result = run_train_workflow(events, config, ModelRegistry(registry))
    summary_path = tmp_path / "summary.json"
    summary_path.write_text(result.to_summary_json(), encoding="utf-8")

    thresholds = checks.stored_thresholds(registry)
    assert thresholds == {
        entry.actor_id: (entry.model.train_mu, entry.model.train_sigma, entry.model.chosen_n)
        for entry in result.entries.values()
    }
    assert set(thresholds) == {"u1", "u2"}

    problems, summary = checks.check_train_call(
        summary_path, registry, {"u1": 120, "u2": 120}, history_names=[]
    )
    assert problems == []
    assert set(summary["actors"]) == {"u1", "u2"}
