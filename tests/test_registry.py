"""Tests for the file-based model registry."""

from __future__ import annotations

import base64
import hashlib
import json
import math
import os
import pathlib
import struct
import tempfile
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from loginwatch.encoding import FEATURE_ORDER, EncoderState, TimeMode, build_index
from loginwatch.events import LogEvent, Outcome
from loginwatch.model import Autoencoder, TrainConfig
from loginwatch.pipeline import PipelineConfig, run_score_workflow
from loginwatch.registry import (
    EntryStatus,
    ModelRegistry,
    RegistryEntry,
    RegistryIntegrityError,
    RegistryNotFoundError,
    UnsafeActorIdError,
    _seal,
    _trailer,
)

from test_model import SIZES, THETA_DAMAGE, feature_columns, fit, random_rows

GOLDEN_V3_REGISTRY = pathlib.Path(__file__).parent / "data" / "registry"
GOLDEN_V4_REGISTRY = pathlib.Path(__file__).parent / "data" / "registry_v4"
GOLDEN_V5_REGISTRY = pathlib.Path(__file__).parent / "data" / "registry_v5"
GOLDEN_V6_REGISTRY = pathlib.Path(__file__).parent / "data" / "registry_v6"


def make_encoder_state() -> EncoderState:
    return EncoderState(
        geohash_precision=3,
        time_mode=TimeMode.RAW,
        active_hours=frozenset({9, 10, 11}),
        indices={
            "geohash": build_index(["", "dr5", "gbs"]),
            "app_id": build_index(["docs", "mail"]),
            "outcome": build_index(["FAILURE", "SUCCESS"]),
            "client_os": build_index(["Linux"]),
            "client_device": build_index(["Computer"]),
        },
        known_apps=frozenset({"mail"}),
    )


def make_entry(actor: str = "u1", seed: int = 0, f1: float = 0.9) -> RegistryEntry:
    rows = random_rows(30, seed=seed)
    model = fit(rows, TrainConfig(epochs=2), actor_id=actor, seed=seed)
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
        assert encoder.indices["app_id"] == {"docs": 1, "mail": 2}
        assert encoder.known_apps == frozenset({"mail"})

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


def is_finite_float32(bits: int) -> bool:
    """Whether a float32 bit pattern is finite: its exponent is not all ones."""
    return bits & 0x7F800000 != 0x7F800000


def not_float32(value: float) -> bool:
    """Whether float32 narrowing changes the 64 bits of ``value``."""
    with np.errstate(over="ignore", invalid="ignore"):
        narrowed = np.float64(np.float32(value))
    return narrowed.tobytes() != np.float64(value).tobytes()


def nan_with_low_payload(low: int) -> float:
    """A quiet float64 NaN whose payload has bits below float32's 23."""
    return struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000000 | low))[0]


NOT_FLOAT32 = st.floats(allow_nan=False, allow_infinity=False).filter(not_float32)
FINITE_FLOAT32_BITS = st.integers(0, 2**32 - 1).filter(is_finite_float32)
NON_FINITE_FLOAT32_BITS = st.integers(0, 2**23 - 1).flatmap(
    lambda fraction: st.sampled_from([0x7F800000 | fraction, 0xFF800000 | fraction])
)


class TestStoredTheta:
    """A stored ``theta`` is finite float32: every such value survives, nothing else is written."""

    @settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(bits=st.lists(FINITE_FLOAT32_BITS, min_size=1, max_size=12))
    @example(  # -0.0, the smallest and largest subnormal, the largest finite values
        bits=[0x80000000, 0x00000001, 0x807FFFFF, 0x7F7FFFFF, 0xFF7FFFFF]
    )
    def test_any_float32_value_round_trips_bit_exactly(self, tmp_path, bits):
        entry = make_entry()
        values = np.array(bits, dtype="<u4").view("<f4")
        entry.model.theta[: values.size] = values
        before = entry.model.theta.copy()
        registry = ModelRegistry(tempfile.mkdtemp(dir=tmp_path))
        path = registry.save(entry)
        stored = bytes.fromhex(json.loads(path.read_bytes())["model"]["theta"])
        assert np.frombuffer(stored, "<u4")[: len(bits)].tolist() == bits
        assert registry.load("u1").model.theta.tobytes() == before.tobytes()

    @settings(max_examples=30, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(bits=NON_FINITE_FLOAT32_BITS, at=st.integers(0, 200))
    @example(bits=0x7F800000, at=0)  # +inf
    @example(bits=0xFF800000, at=7)  # -inf
    @example(bits=0x7FC00001, at=1)  # quiet NaNs with payloads
    @example(bits=0xFFE5A5A5, at=2)
    @example(bits=0x7F800001, at=3)  # signalling NaNs
    @example(bits=0xFFA00000, at=4)
    def test_non_finite_value_is_neither_saved_nor_loaded(self, tmp_path, bits, at):
        # a NaN or infinite parameter makes every loss NaN or infinite, which
        # is never above the threshold: the actor would score every login NORMAL
        value = np.array([bits], dtype="<u4").view("<f4")
        entry = make_entry()
        with np.errstate(invalid="ignore"):  # a signalling NaN widens to a quiet one
            entry.model.theta[at] = value[0]
        root = pathlib.Path(tempfile.mkdtemp(dir=tmp_path))
        registry = ModelRegistry(root)
        with pytest.raises(ValueError, match=f"theta\\[{at}\\] = .* is not finite"):
            registry.save(entry)
        entry.model.theta[at] = nan_with_low_payload(1)  # a float64 NaN no float32 holds
        with pytest.raises(ValueError, match="is not finite"):
            registry.save(entry)
        assert list(root.iterdir()) == []

        # a sealed document that holds one is refused, and only its actor is unscorable
        path = registry.save(make_entry("u1"))
        registry.save(make_entry("u2", seed=1))
        document = json.loads(path.read_bytes())
        del document["checksum"]
        stored = bytearray(bytes.fromhex(document["model"]["theta"]))
        stored[4 * at : 4 * at + 4] = value.tobytes()
        document["model"]["theta"] = stored.hex()
        path.write_bytes(_seal(document))
        with pytest.raises(RegistryIntegrityError, match="is not finite") as caught:
            registry.load("u1")
        assert str(path) in str(caught.value)
        result = run_score_workflow(
            live_events("u1") + live_events("u2"), PipelineConfig(), registry
        )
        assert result.unscorable == ["u1"]
        assert list(result.reports) == ["u2"]

    @settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(value=NOT_FLOAT32, at=st.integers(0, 200))
    @example(value=np.pi, at=0)
    @example(value=5e-324, at=3)
    @example(value=1.7976931348623157e308, at=4)
    def test_value_float32_cannot_hold_is_not_saved(self, tmp_path, value, at):
        entry = make_entry()
        entry.model.theta[at] = value
        root = pathlib.Path(tempfile.mkdtemp(dir=tmp_path))
        with pytest.raises(ValueError, match=f"theta\\[{at}\\] = .* is not a float32 value"):
            ModelRegistry(root).save(entry)
        assert list(root.iterdir()) == []


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
        document = json.loads(path.read_bytes())
        document.pop("checksum")
        document["version"] = 99
        # sealed with a valid checksum, so the version check itself is what trips
        path.write_bytes(_seal(document))
        with pytest.raises(RegistryIntegrityError, match="version") as caught:
            registry.load("u1")
        assert str(path) in str(caught.value)

    @pytest.mark.parametrize(
        "damage",
        [
            "truncated",
            "body_byte_flipped",
            "wrong_digest",
            "not_json",
            "not_json_sealed",
            "empty",
            "version_1_layout",
            "version_2_sealed",
            "version_3_sealed",
            "version_4_sealed",
            "version_5_sealed",
        ],
    )
    def test_hostile_document_refused_naming_the_path(self, tmp_path, damage):
        registry = ModelRegistry(tmp_path)
        path = registry.save(make_entry())
        path.write_bytes(hostile_payload(path.read_bytes(), damage))
        with pytest.raises(RegistryIntegrityError, match="checksum") as caught:
            registry.load("u1")
        assert str(path) in str(caught.value)
        assert "retrain" in str(caught.value)

    @pytest.mark.parametrize(
        "damage", ["theta_cut", *THETA_DAMAGE, "member_missing", "status_unknown"]
    )
    def test_sealed_document_that_does_not_fit_refused_naming_the_path(
        self, tmp_path, damage
    ):
        # the checksum holds, so only rebuilding the entry finds the fault
        registry = ModelRegistry(tmp_path)
        path = registry.save(make_entry())
        document = json.loads(path.read_bytes())
        del document["checksum"]
        if damage == "theta_cut":
            document["model"]["theta"] = document["model"]["theta"][:-12]
        elif damage in THETA_DAMAGE:
            document["model"]["theta"] = THETA_DAMAGE[damage](document["model"]["theta"])
        elif damage == "member_missing":
            del document["encoder"]
        else:
            document["status"] = "RETIRED"
        path.write_bytes(_seal(document))
        with pytest.raises(RegistryIntegrityError, match="not hold a valid model") as caught:
            registry.load("u1")
        assert str(path) in str(caught.value)
        assert "retrain" in str(caught.value)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("train_mu", float("inf")),
            ("train_mu", float("nan")),
            ("train_sigma", float("nan")),
            ("train_sigma", float("inf")),
            ("chosen_n", float("inf")),
            ("chosen_n", float("nan")),
        ],
    )
    def test_non_finite_threshold_refused_and_only_its_actor_unscorable(
        self, tmp_path, name, value
    ):
        # json reads NaN and Infinity; either would leave the actor scored
        # with a threshold that flags nothing
        registry = ModelRegistry(tmp_path)
        path = registry.save(make_entry("u1"))
        registry.save(make_entry("u2", seed=1))
        document = json.loads(path.read_bytes())
        del document["checksum"]
        document["model"][name] = value
        path.write_bytes(seal_allowing_nan(document))
        with pytest.raises(RegistryIntegrityError, match=f"{name} must be finite") as caught:
            registry.load("u1")
        assert str(path) in str(caught.value)
        result = run_score_workflow(
            live_events("u1") + live_events("u2"), PipelineConfig(), registry
        )
        assert result.unscorable == ["u1"]
        assert list(result.reports) == ["u2"]

    @pytest.mark.parametrize("weight", [math.nan, math.inf, -1.0])
    def test_stored_feature_weight_refused_and_only_its_actor_unscorable(
        self, tmp_path, weight
    ):
        # a NaN weight makes every loss NaN and an infinite one every loss
        # inf, so the actor would never be flagged; TrainConfig refuses all three
        registry = ModelRegistry(tmp_path)
        path = registry.save(make_entry("u1"))
        registry.save(make_entry("u2", seed=1))
        document = json.loads(path.read_bytes())
        del document["checksum"]
        document["model"]["feature_weights"]["geohash"] = weight
        path.write_bytes(seal_allowing_nan(document))
        with pytest.raises(RegistryIntegrityError, match="feature weight geohash") as caught:
            registry.load("u1")
        assert str(path) in str(caught.value)
        result = run_score_workflow(
            live_events("u1") + live_events("u2"), PipelineConfig(), registry
        )
        assert result.unscorable == ["u1"]
        assert list(result.reports) == ["u2"]

    @pytest.mark.parametrize("where", ["copied", "document_resealed", "model_resealed"])
    def test_document_of_another_actor_refused(self, tmp_path, where):
        # the checksum does not cover the path, so a copied file passes it
        registry = ModelRegistry(tmp_path)
        registry.save(make_entry("u1"))
        path = registry.save(make_entry("u2", seed=1))
        if where == "copied":
            path.write_bytes(registry.entry_paths("u1")[-1].read_bytes())
        else:
            document = json.loads(path.read_bytes())
            del document["checksum"]
            if where == "document_resealed":
                document["actor_id"] = "u1"
            else:
                document["model"]["actor_id"] = "u1"
            path.write_bytes(_seal(document))
        with pytest.raises(RegistryIntegrityError, match="not 'u2'") as caught:
            registry.load("u2")
        assert str(path) in str(caught.value)
        assert registry.load("u1").actor_id == "u1"

    def test_no_temp_files_left_behind(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.save(make_entry())
        registry.save(make_entry(seed=3))
        leftovers = list(tmp_path.rglob("*.tmp"))
        assert leftovers == []


def hostile_payload(sealed: bytes, damage: str) -> bytes:
    """A damaged copy of one sealed document's bytes."""
    head, member, tail = sealed.rpartition(b',"checksum":"')
    if damage == "truncated":
        return sealed[: len(sealed) // 2]
    if damage == "body_byte_flipped":
        # the first decimal of the stored mu, so the body is still valid JSON
        at = head.index(b".", head.index(b'"train_mu":')) + 1
        digit = b"7" if head[at : at + 1] != b"7" else b"3"
        return head[:at] + digit + head[at + 1 :] + member + tail
    if damage == "wrong_digest":
        return head + member + hashlib.sha256(b"other").hexdigest().encode() + b'"}'
    if damage == "not_json":
        return b"not json, just some bytes"
    if damage == "not_json_sealed":
        forged = b"{not json" * 20
        return forged + member + hashlib.sha256(forged).hexdigest().encode() + b'"}'
    if damage == "empty":
        return b""
    if damage == "version_1_layout":
        # spaced JSON, checksum over the compact form, in sorted key position
        document = json.loads(sealed)
        del document["checksum"]
        document["version"] = 1
        compact = json.dumps(document, sort_keys=True, separators=(",", ":"))
        document["checksum"] = hashlib.sha256(compact.encode()).hexdigest()
        return json.dumps(document, sort_keys=True).encode()
    if damage == "version_2_sealed":
        document = json.loads(sealed)
        del document["checksum"]
        return _seal(version_2_document(document))
    if damage == "version_3_sealed":  # the same content with theta in base64
        document = json.loads(sealed)
        del document["checksum"]
        theta = bytes.fromhex(document["model"]["theta"])
        document["model"]["theta"] = base64.b64encode(theta).decode("ascii")
        return _seal({**document, "version": 3})
    if damage == "version_4_sealed":  # the same values as float64 hex, with loss_mode
        document = json.loads(sealed)
        del document["checksum"]
        theta = np.frombuffer(bytes.fromhex(document["model"]["theta"]), "<f4")
        document["model"]["theta"] = theta.astype("<f8").tobytes().hex()
        document["model"]["loss_mode"] = "SUM"
        return _seal({**document, "version": 4})
    if damage == "version_5_sealed":  # the known apps in an actor-keyed superset
        document = json.loads(sealed)
        del document["checksum"]
        encoder = document["encoder"]
        encoder["superset"] = {document["actor_id"]: encoder.pop("known_apps")}
        return _seal({**document, "version": 5})
    raise ValueError(damage)


def seal_allowing_nan(document: dict) -> bytes:
    """``document`` sealed as ``_seal`` seals it, but with any NaN or infinity
    written as ``json`` writes it: the bytes of a writer other than ``save``,
    which ``load`` must refuse."""
    head = json.dumps(document, sort_keys=True, separators=(",", ":")).encode()[:-1]
    return head + _trailer(head)


def version_2_document(document: dict) -> dict:
    """``document`` in the version-2 layout: one JSON array per parameter."""
    model = Autoencoder.from_state(document["model"])
    views = model._stack.views(0)
    columns = feature_columns(model).items()
    state = {key: value for key, value in document["model"].items() if key != "theta"}
    state.update({key: views[key].tolist() for key in ("w1", "b1", "w2", "b2", "w3", "b3")})
    state["embeddings"] = {name: views[name].tolist() for name in FEATURE_ORDER}
    state["heads"] = {name: views["head"][cols].tolist() for name, cols in columns}
    state["head_biases"] = {name: views["head_bias"][cols].tolist() for name, cols in columns}
    return {**document, "version": 2, "model": state}


def live_events(actor: str = "u1") -> list[LogEvent]:
    """A few sign-on events of ``actor``, some with values no vocabulary holds."""
    start = datetime(2023, 3, 4, 5, 0, 0, tzinfo=timezone.utc)
    places = [(40.7, -74.0), (51.5, -0.1), (None, None)]
    return [
        LogEvent(
            actor_id=actor,
            timestamp=start + timedelta(hours=7 * i),
            event_type="user.authentication.sso",
            outcome=Outcome.SUCCESS if i % 3 else Outcome.FAILURE,
            latitude=places[i % 3][0],
            longitude=places[i % 3][1],
            app_id=["mail", "docs", "new-app"][i % 3],
            client_os=["Linux", "Windows"][i % 2],
            client_device="Computer",
        )
        for i in range(6)
    ]


def document_paths(value, path: tuple = ()) -> list[tuple]:
    """The path of every member and item of a JSON value, the value itself first."""
    paths = [path]
    if isinstance(value, dict):
        for key, item in value.items():
            paths += document_paths(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            paths += document_paths(item, path + (i,))
    return paths


def mutated(document: dict, path: tuple, action: str, value) -> dict:
    """A copy of ``document`` with the member or item at ``path`` replaced,
    deleted, or (for a list) given ``value`` as a new first item."""
    document = json.loads(json.dumps(document))
    parent = document
    for step in path[:-1]:
        parent = parent[step]
    target = parent[path[-1]]
    if action == "insert" and isinstance(target, list):
        target.insert(0, value)
    elif action == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return document


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 30)
    | st.floats(-1e3, 1e3)
    | st.text("ab0!", max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text("ab", max_size=2), inner, max_size=2),
    max_leaves=4,
)


# What a member of a stored document is set to, unless it is deleted.
RETYPED_VALUES = [None, "x", 0, -1, 2**70, 1e308, True, [], ["x", 1], {}, {"x": 1}]
MEMBER_CHANGES = [("delete", None)] + [("replace", value) for value in RETYPED_VALUES]


def golden_document() -> dict:
    """The version-6 golden document, without its checksum."""
    (path,) = ModelRegistry(GOLDEN_V6_REGISTRY).entry_paths("golden")
    document = json.loads(path.read_bytes())
    del document["checksum"]
    return document


def member_paths(document: dict) -> list[tuple]:
    """The path of every member and item of a document, nested ones
    included, apart from ``model.theta`` and ``metrics``."""
    return [
        path
        for path in document_paths(document)
        if path and path[0] != "metrics" and path[:2] != ("model", "theta")
    ]


class TestStoredDocumentProperties:
    """Whatever the stored bytes, a document hurts only its own actor."""

    @pytest.fixture(scope="class")
    def sealed(self) -> bytes:
        return _seal(make_entry().to_document())

    @pytest.fixture(scope="class")
    def healthy(self) -> bytes:
        return _seal(make_entry("u2", seed=1).to_document())

    @settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        path=st.deferred(lambda: st.sampled_from(member_paths(golden_document()))),
        change=st.sampled_from(MEMBER_CHANGES),
    )
    @example(path=("encoder", "known_apps"), change=("delete", None))
    @example(path=("encoder", "known_apps"), change=("replace", "x"))
    @example(path=("encoder", "known_apps"), change=("replace", ["x", 1]))
    @example(path=("encoder", "known_apps"), change=("replace", {"x": 1}))
    def test_deleted_or_retyped_member_hurts_only_its_actor(
        self, healthy, tmp_path, path, change
    ):
        # the golden document with one member changed, beside u2's healthy one
        directory = pathlib.Path(tempfile.mkdtemp(dir=tmp_path))
        changed = _seal(mutated(golden_document(), path, *change))
        for actor, payload in (("golden", changed), ("u2", healthy)):
            target = directory / actor / "20230101T000000.000000Z.model"
            target.parent.mkdir()
            target.write_bytes(payload)
        registry = ModelRegistry(directory)
        try:
            registry.load("golden")
        except RegistryIntegrityError:
            loaded = False
        else:
            loaded = True
        events = live_events("golden") + live_events("u2")
        result = run_score_workflow(events, PipelineConfig(), registry)
        assert sorted(result.reports) == (["golden", "u2"] if loaded else ["u2"])
        assert result.unscorable == ([] if loaded else ["golden"])
        for report in result.reports.values():
            assert np.isfinite(report.losses).all()

    @settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_truncated_or_changed_byte_refused(self, sealed, tmp_path, data):
        if data.draw(st.booleans(), label="truncate"):
            damaged = sealed[: data.draw(st.integers(0, len(sealed) - 1), label="length")]
        else:
            at = data.draw(st.integers(0, len(sealed) - 1), label="at")
            byte = data.draw(st.integers(0, 255).filter(lambda b: b != sealed[at]), label="byte")
            damaged = sealed[:at] + bytes([byte]) + sealed[at + 1 :]
        path = tmp_path / "u1" / "20230101T000000.000000Z.model"
        path.parent.mkdir(exist_ok=True)
        path.write_bytes(damaged)
        with pytest.raises(RegistryIntegrityError):
            ModelRegistry(tmp_path).load("u1")

    @settings(max_examples=120, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_mutated_and_resealed_document_loads_and_scores_or_is_refused(
        self, sealed, tmp_path, data
    ):
        document = json.loads(sealed)
        del document["checksum"]
        paths = [p for p in document_paths(document) if p and p != ("version",)]
        path = data.draw(st.sampled_from(paths), label="path")
        action = data.draw(st.sampled_from(["replace", "delete", "insert"]), label="action")
        value = data.draw(JSON_VALUES, label="value")
        registry_dir = pathlib.Path(tempfile.mkdtemp(dir=tmp_path))
        target = registry_dir / "u1" / "20230101T000000.000000Z.model"
        target.parent.mkdir()
        target.write_bytes(_seal(mutated(document, path, action, value)))
        registry = ModelRegistry(registry_dir)
        try:
            registry.load("u1")
        except RegistryIntegrityError:
            loaded = False
        else:
            loaded = True
        result = run_score_workflow(live_events(), PipelineConfig(), registry)
        assert ("u1" in result.reports) == loaded
        assert result.unscorable == ([] if loaded else ["u1"])


class TestSealedFormat:
    def test_document_is_compact_sorted_json_sealed_by_its_last_member(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        entry = make_entry()
        payload = registry.save(entry).read_bytes()
        head, member, tail = payload.rpartition(b',"checksum":"')
        assert member
        assert tail == hashlib.sha256(head).hexdigest().encode() + b'"}'
        document = json.loads(payload)
        assert list(document)[-1] == "checksum"
        assert document["version"] == 6
        assert document["encoder"]["known_apps"] == ["mail"]
        assert "superset" not in document["encoder"]
        assert document["model"]["theta"] == entry.model.theta.astype("<f4").tobytes().hex()
        assert "loss_mode" not in document["model"]
        body = {key: value for key, value in document.items() if key != "checksum"}
        compact = json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
        assert head + b"}" == compact

    def test_save_writes_one_file_and_reads_no_stored_document(
        self, tmp_path, monkeypatch
    ):
        registry = ModelRegistry(tmp_path)
        sealed = registry.save(make_entry()).read_bytes()
        actor_dir = tmp_path / "u1"
        for path in actor_dir.iterdir():
            path.unlink()
        for night in range(1, 31):
            (actor_dir / f"202301{night:02d}T020000.000000Z.model").write_bytes(sealed)

        def refuse(path):
            raise AssertionError(f"save read {path}")

        monkeypatch.setattr(pathlib.Path, "read_bytes", refuse)
        path = registry.save(make_entry(seed=1, f1=0.95))
        monkeypatch.undo()
        assert sorted(p.name for p in actor_dir.iterdir()) == [
            p.name for p in registry.entry_paths("u1")
        ]
        assert len(registry.entry_paths("u1")) == 31
        assert registry.entry_paths("u1")[-1] == path
        assert registry.load("u1").metrics["best_f1"] == 0.95

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_statistic_is_not_written(self, tmp_path, value):
        # load refuses a document with a non-finite train_mu, so save writes none
        registry = ModelRegistry(tmp_path)
        older = registry.save(make_entry())
        entry = make_entry(seed=1)
        entry.model.train_mu = value
        with pytest.raises(ValueError, match="not JSON compliant"):
            registry.save(entry)
        assert list((tmp_path / "u1").iterdir()) == [older]
        assert registry.load("u1").created_at == older.stem

    def test_non_json_older_version_does_not_break_save(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        older = tmp_path / "u1" / "20000101T000000.000000Z.model"
        older.parent.mkdir()
        older.write_bytes(b"not json")
        path = registry.save(make_entry())
        assert registry.load("u1").created_at == path.stem
        assert older.read_bytes() == b"not json"

    def test_load_does_not_serialise(self, tmp_path, monkeypatch):
        registry = ModelRegistry(tmp_path)
        entry = make_entry()
        registry.save(entry)

        def refuse(*args, **kwargs):
            raise AssertionError("load called json.dumps")

        monkeypatch.setattr(json, "dumps", refuse)
        loaded = registry.load("u1")
        rows = random_rows(10, seed=2)
        assert np.array_equal(loaded.model.losses(rows), entry.model.losses(rows))


class TestGoldenDocument:
    """Four committed documents of one model under ``tests/data``.

    The version-3 file under ``registry/`` was written once by
    ``ModelRegistry.save`` (3 epochs on ``random_rows(30, seed=5)``, hidden
    5, code 3, outcome weight 2), with ``theta`` in base64. The version-4
    file under ``registry_v4/`` was made from it once by a script that
    re-encoded ``theta`` as hex of the same float64 bytes, set ``version``
    to 4 and resealed it. The version-5 file under ``registry_v5/`` was made
    from the version-4 file once by a script that rounded ``theta`` to
    float32 and stored it as hex of little-endian float32 bytes, dropped
    ``model.loss_mode``, set ``version`` to 5 and resealed it. The version-6
    file under ``registry_v6/`` was made from the version-5 file once by a
    script that set ``version`` to 6, replaced ``encoder.superset`` with
    ``superset.get(actor_id, [])``, the set the version-5 loader applied to
    this actor's logins, and resealed it. Every other member is the
    version-3 file's. Any change to how a stored model is read makes these
    tests fail; such a change needs a new ``FORMAT_VERSION``, not a
    regenerated file.
    """

    def test_golden_version_6_document_loads_with_its_losses(self):
        entry = ModelRegistry(GOLDEN_V6_REGISTRY).load("golden")
        model = entry.model
        assert model.theta.size == 744
        assert hashlib.sha256(model.theta.astype("<f8").tobytes()).hexdigest() == (
            "443c496589d13def0df39c417864e8705ab0e04a465f1426861a4daa8a8d27ec"
        )
        assert model.feature_weights["outcome"] == 2.0
        assert (model.hidden_dim, model.code_dim) == (5, 3)
        assert model.train_mu == 0.0038188762084788532
        assert model.train_sigma == 0.0019951245321737556
        assert model.chosen_n == 2.5
        expected = [
            0.0011322182783389811,
            0.006032601422343742,
            0.001891227530153139,
            0.0017382823831929572,
            0.0031564899315831285,
            0.0018351624906300934,
        ]
        # a tolerance for roundoff on other BLAS builds; a layout drift moves
        # the losses by far more
        assert model.losses(random_rows(6, seed=22)) == pytest.approx(expected, rel=1e-9)
        assert entry.encoder.indices["app_id"]["mail"] == 2
        assert entry.encoder.known_apps == frozenset()
        assert entry.metrics == {"best_f1": 0.9, "best_n": 2.5}

    @pytest.mark.parametrize(
        "registry, version",
        [(GOLDEN_V3_REGISTRY, 3), (GOLDEN_V4_REGISTRY, 4), (GOLDEN_V5_REGISTRY, 5)],
        ids=["v3", "v4", "v5"],
    )
    def test_older_golden_document_is_refused(self, registry, version):
        (path,) = ModelRegistry(registry).entry_paths("golden")
        assert json.loads(path.read_bytes())["version"] == version
        with pytest.raises(RegistryIntegrityError, match="format version 6") as caught:
            ModelRegistry(registry).load("golden")
        assert str(path) in str(caught.value)
        assert "retrain" in str(caught.value)

    def test_version_3_and_4_documents_hold_the_same_theta_bytes(self):
        (v3,) = ModelRegistry(GOLDEN_V3_REGISTRY).entry_paths("golden")
        (v4,) = ModelRegistry(GOLDEN_V4_REGISTRY).entry_paths("golden")
        old, new = json.loads(v3.read_bytes()), json.loads(v4.read_bytes())
        assert base64.b64decode(old["model"].pop("theta"), validate=True) == bytes.fromhex(
            new["model"].pop("theta")
        )
        for document in (old, new):
            del document["checksum"], document["version"]
        assert old == new

    def test_version_5_theta_is_the_version_4_theta_rounded_to_float32(self):
        (v4,) = ModelRegistry(GOLDEN_V4_REGISTRY).entry_paths("golden")
        (v5,) = ModelRegistry(GOLDEN_V5_REGISTRY).entry_paths("golden")
        old, new = json.loads(v4.read_bytes()), json.loads(v5.read_bytes())
        wide = np.frombuffer(bytes.fromhex(old["model"].pop("theta")), "<f8")
        narrow = np.frombuffer(bytes.fromhex(new["model"].pop("theta")), "<f4")
        assert narrow.tobytes() == wide.astype("<f4").tobytes()
        # rounding moved the values, but by less than float32's half step
        assert 0 < np.abs(narrow - wide).max() <= np.abs(wide).max() * 2.0**-24
        assert old["model"].pop("loss_mode") == "SUM"
        for document in (old, new):
            del document["checksum"], document["version"]
        assert old == new

    def test_version_6_known_apps_are_the_version_5_superset_of_its_actor(self):
        (v5,) = ModelRegistry(GOLDEN_V5_REGISTRY).entry_paths("golden")
        (v6,) = ModelRegistry(GOLDEN_V6_REGISTRY).entry_paths("golden")
        old, new = json.loads(v5.read_bytes()), json.loads(v6.read_bytes())
        assert (old["version"], new["version"]) == (5, 6)
        # the only key is u1, so version 5 gave every login of "golden" bit 1
        superset = old["encoder"].pop("superset")
        assert superset == {"u1": ["mail"]}
        assert new["encoder"].pop("known_apps") == superset.get(new["actor_id"], []) == []
        for document in (old, new):
            del document["checksum"], document["version"]
        assert old == new


class TestEntryPaths:
    """``entry_paths`` lists what ``sorted(dir.glob("*.model"))`` lists."""

    NAMES = [
        "20230102T000000.000000Z.model",
        "20230101T000000.000000Z.model",
        "20230101T000000.000000Z-01.model",
        ".hidden.model",
        ".model",
        "x.model.tmp",
        "X.MODEL",
        "notes.txt",
        "Zürich.model",
        "été.model",
        "日本.model",
        "a b.model",
    ]

    def test_lists_the_names_glob_matches_in_glob_order(self, tmp_path):
        actor_dir = tmp_path / "u1"
        actor_dir.mkdir()
        for name in self.NAMES:
            (actor_dir / name).write_bytes(b"")
        (actor_dir / "sub.model").mkdir()  # listed by name, refused by load
        paths = ModelRegistry(tmp_path).entry_paths("u1")
        assert paths == sorted(actor_dir.glob("*.model"))
        assert "x.model.tmp" not in {p.name for p in paths}
        assert "X.MODEL" not in {p.name for p in paths}
        assert ModelRegistry(tmp_path).actors() == ["u1"]

    def test_missing_directory_or_a_file_in_its_place_lists_nothing(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        assert registry.entry_paths("u1") == []
        (tmp_path / "u1").write_bytes(b"a file, not a directory")
        assert registry.entry_paths("u1") == []
        assert registry.actors() == []
        with pytest.raises(RegistryNotFoundError):
            registry.load("u1")
        assert ModelRegistry(tmp_path / "absent").actors() == []
        assert ModelRegistry(tmp_path / "u1").actors() == []

    def test_unreadable_directory_lists_nothing(self, tmp_path, monkeypatch):
        # tests may run as root, who can list any directory, so the refusal is simulated
        registry = ModelRegistry(tmp_path)
        registry.save(make_entry("u1"))
        registry.save(make_entry("u2", seed=1))
        real_scandir = os.scandir

        def scandir(path):
            if pathlib.Path(path).name == "u1":
                raise PermissionError(13, "Permission denied", str(path))
            return real_scandir(path)

        monkeypatch.setattr(os, "scandir", scandir)
        assert registry.entry_paths("u1") == []
        assert registry.actors() == ["u2"]
        with pytest.raises(RegistryNotFoundError):
            registry.load("u1")
        assert registry.load("u2").actor_id == "u2"


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
        "actor", ["x" * 256, "\u00e9" * 128, "\ud800"],
        ids=["256-bytes", "128-two-byte-characters", "lone-surrogate"],
    )
    def test_id_that_no_file_name_holds_rejected_without_writing(self, tmp_path, actor):
        registry = ModelRegistry(tmp_path / "registry")
        assert registry.name_max == 255  # the root does not exist yet
        with pytest.raises(UnsafeActorIdError, match="file name"):
            registry.save(make_entry(actor=actor))
        with pytest.raises(UnsafeActorIdError, match="file name"):
            registry.load(actor)
        assert list(tmp_path.iterdir()) == []

    def test_name_limit_is_asked_of_the_root(self, tmp_path, monkeypatch):
        asked = []

        def pathconf(path, name):
            asked.append((path, name))
            return 10

        monkeypatch.setattr(os, "pathconf", pathconf)
        registry = ModelRegistry(tmp_path)
        assert registry.save(make_entry(actor="x" * 10)).parent == tmp_path / ("x" * 10)
        with pytest.raises(UnsafeActorIdError, match="11 bytes is longer than the 10-byte"):
            registry.save(make_entry(actor="x" * 11))
        assert asked == [(tmp_path, "PC_NAME_MAX")]

    @pytest.mark.parametrize(
        "actor", ["u1", "alice@example.com", "00u1f2 g.h-i_j", "..a", "a..", "x" * 255]
    )
    def test_plain_ids_keep_their_directory_name(self, tmp_path, actor):
        registry = ModelRegistry(tmp_path)
        path = registry.save(make_entry(actor=actor))
        assert path.parent == tmp_path / actor
        assert registry.actors() == [actor]
        assert registry.load(actor).actor_id == actor
