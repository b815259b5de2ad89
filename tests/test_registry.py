"""Tests for the file-based model registry."""

from __future__ import annotations

import json

import numpy as np
import pytest

from loginwatch.apps import AppSuperset
from loginwatch.encoding import TimeMode, build_index
from loginwatch.model import TrainConfig, train
from loginwatch.registry import (
    METRICS_FILENAME,
    EncoderState,
    EntryStatus,
    ModelRegistry,
    RegistryEntry,
    RegistryIntegrityError,
    RegistryNotFoundError,
    UnsafeActorIdError,
)

from test_model import SIZES, random_rows


def make_encoder_state() -> EncoderState:
    return EncoderState(
        geohash_precision=3,
        time_mode=TimeMode.RAW,
        active_hours=frozenset({9, 10, 11}),
        indices={
            "geohash": build_index(["", "dr5", "gbs"], "geohash"),
            "app_id": build_index(["docs", "mail"], "app_id"),
            "outcome": build_index(["FAILURE", "SUCCESS"], "outcome"),
            "client_os": build_index(["Linux"], "client_os"),
            "client_device": build_index(["Computer"], "client_device"),
        },
        superset=AppSuperset({"u1": ["mail"]}),
    )


def make_entry(actor: str = "u1", seed: int = 0, f1: float = 0.9) -> RegistryEntry:
    rows = random_rows(30, seed=seed)
    config = TrainConfig(epochs=2, seed=seed)
    model = train(rows, config, feature_sizes=SIZES, actor_id=actor)
    model.chosen_n = 2.5
    return RegistryEntry(
        actor_id=actor,
        model=model,
        encoder=make_encoder_state(),
        status=EntryStatus.ACTIVE,
        metrics={"best_f1": f1, "best_n": 2.5},
        metadata={"train_events": len(rows)},
    )


class TestSaveLoad:
    def test_round_trip_preserves_losses_bit_exactly(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        entry = make_entry()
        rows = random_rows(20, seed=1)
        before = entry.model.losses(rows)
        path = registry.save(entry)
        assert path.exists()
        assert path.suffix == ".model"
        loaded = registry.load("u1")
        assert np.array_equal(loaded.model.losses(rows), before)
        assert loaded.status is EntryStatus.ACTIVE
        assert loaded.metrics == entry.metrics
        assert loaded.metadata == entry.metadata
        assert loaded.model.chosen_n == 2.5
        assert loaded.created_at == path.stem

    def test_encoder_state_round_trips(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.save(make_entry())
        encoder = registry.load("u1").encoder
        assert encoder.geohash_precision == 3
        assert encoder.time_mode is TimeMode.RAW
        assert encoder.active_hours == frozenset({9, 10, 11})
        assert encoder.indices["app_id"].index_of("mail") == 2
        assert encoder.indices["app_id"].index_of("unseen") == 0
        assert encoder.superset.known_app("u1", "mail") == 0
        assert encoder.superset.known_app("u1", "other") == 1

    def test_newest_entry_wins(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.save(make_entry(seed=0, f1=0.5))
        registry.save(make_entry(seed=1, f1=0.95))
        assert len(registry.entry_paths("u1")) == 2
        assert registry.load("u1").metrics["best_f1"] == 0.95

    def test_missing_actor_raises(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        with pytest.raises(RegistryNotFoundError):
            registry.load("nobody")

    def test_actors_lists_saved_dirs(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        assert registry.actors() == []
        registry.save(make_entry(actor="u2", seed=0))
        registry.save(make_entry(actor="u1", seed=1))
        assert registry.actors() == ["u1", "u2"]


class TestIntegrity:
    def test_corrupt_document_detected(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        path = registry.save(make_entry())
        text = path.read_text()
        # flip a digit inside the stored mu without breaking the JSON
        document = json.loads(text)
        document["model"]["train_mu"] = document["model"]["train_mu"] + 1e-3
        path.write_text(json.dumps(document, sort_keys=True))
        with pytest.raises(RegistryIntegrityError, match="checksum"):
            registry.load("u1")

    def test_missing_checksum_detected(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        path = registry.save(make_entry())
        document = json.loads(path.read_text())
        del document["checksum"]
        path.write_text(json.dumps(document, sort_keys=True))
        with pytest.raises(RegistryIntegrityError):
            registry.load("u1")

    def test_unsupported_version_detected(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        path = registry.save(make_entry())
        document = json.loads(path.read_text())
        document.pop("checksum")
        document["version"] = 99
        # re-checksum so the version check itself is what trips
        from loginwatch.registry import _checksum

        document["checksum"] = _checksum(document)
        path.write_text(json.dumps(document, sort_keys=True))
        with pytest.raises(RegistryIntegrityError, match="version"):
            registry.load("u1")

    def test_no_temp_files_left_behind(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.save(make_entry())
        registry.save(make_entry(seed=3))
        leftovers = list(tmp_path.rglob("*.tmp"))
        assert leftovers == []


class TestMetricsFile:
    def test_metrics_summary_tracks_every_save(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.save(make_entry(f1=0.6))
        registry.save(make_entry(seed=2, f1=0.85))
        payload = json.loads((tmp_path / "u1" / METRICS_FILENAME).read_text())
        assert payload["actor_id"] == "u1"
        assert len(payload["entries"]) == 2
        assert [row["best_f1"] for row in payload["entries"]] == [0.6, 0.85]
        for row in payload["entries"]:
            assert row["status"] == "ACTIVE"
            assert row["best_n"] == 2.5
            assert row["created_at"]


HOSTILE_IDS = ["", ".", "..", "../escaped", "a/b", "a\\b", "nul\0byte", "/abs"]


class TestActorIds:
    @pytest.mark.parametrize("actor", HOSTILE_IDS)
    def test_unsafe_id_rejected_without_writing(self, tmp_path, actor):
        registry = ModelRegistry(tmp_path / "registry")
        if actor == "/abs":
            actor = str(tmp_path / "abs")  # absolute, but inside the test's directory
        with pytest.raises(UnsafeActorIdError):
            registry.save(make_entry(actor=actor))
        with pytest.raises(UnsafeActorIdError):
            registry.load(actor)
        with pytest.raises(UnsafeActorIdError):
            registry.entry_paths(actor)
        # nothing was created, inside the registry or next to it
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "actor", ["u1", "alice@example.com", "00u1f2 g.h-i_j", "..a", "a.."]
    )
    def test_plain_ids_keep_their_directory_name(self, tmp_path, actor):
        registry = ModelRegistry(tmp_path)
        path = registry.save(make_entry(actor=actor))
        assert path.parent == tmp_path / actor
        assert registry.actors() == [actor]
        assert registry.load(actor).actor_id == actor
