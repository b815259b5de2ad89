"""Tests for the train/score workflows, sampling, config, and the CLI."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import math
import shutil
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loginwatch import pipeline as pipeline_module
from loginwatch.apps import build_superset, login_frequencies
from loginwatch.cli import main
from loginwatch.encoding import (
    FEATURE_ORDER,
    EncoderState,
    TimeMode,
    build_event_indices,
    encode_event,
    observed_hours,
)
from loginwatch.events import (
    LogEvent,
    Outcome,
    filter_entry_events,
    hour_and_weekday,
    parse_event,
    write_events,
)
from loginwatch.inject import InjectionKind, InjectionSpec
from loginwatch.model import TrainConfig
from loginwatch.pipeline import (
    COLUMN_ENCODE_MIN_EVENTS,
    PipelineConfig,
    WorkflowError,
    _actor_seed,
    _encode_actor_events,
    _prepare_actor,
    primary_sweep,
    run_score_workflow,
    run_train_workflow,
    stratified_sample,
)
from loginwatch.registry import EntryStatus, ModelRegistry, RegistryIntegrityError, _seal
from loginwatch.synth import generate_corpus

from test_model import THETA_DAMAGE
from test_registry import seal_allowing_nan, version_2_document


def crafted_events(
    actor: str,
    count: int,
    app_at=lambda i: "app-mail",
    start: datetime = datetime(2023, 1, 2, 0, 0, 0, tzinfo=timezone.utc),
) -> list[LogEvent]:
    events = []
    for i in range(count):
        events.append(
            LogEvent(
                actor_id=actor,
                timestamp=start + timedelta(hours=i),
                event_type="user.authentication.sso",
                outcome=Outcome.SUCCESS,
                latitude=40.7 + (i % 5) * 0.002,
                longitude=-74.0 - (i % 3) * 0.002,
                app_id=app_at(i),
                client_os="Linux",
                client_device="Computer",
            )
        )
    return events


def single_valued_events(actor: str, count: int) -> list[LogEvent]:
    """A service account's logins: one cell, app, outcome, OS and device. In
    COARSE time mode each of its features has one level, so its input is 8
    wide, too narrow for the default ``code_dim`` of 8."""
    return [
        dataclasses.replace(event, latitude=40.7, longitude=-74.0)
        for event in crafted_events(actor, count)
    ]


@pytest.fixture(scope="module")
def corpus_events() -> list[LogEvent]:
    records = generate_corpus(actor_count=2, days=30, seed=2)
    return [parse_event(json.dumps(r), 1) for r in records]


def fast_config(**overrides) -> PipelineConfig:
    # 80 epochs at lr 0.1 is enough for both corpus actors to clear the
    # retrain threshold, so the registry fixture holds ACTIVE entries
    base = dict(
        min_events=100,
        train=TrainConfig(epochs=80, learning_rate=0.1),
        seed=3,
    )
    base.update(overrides)
    return PipelineConfig(**base)


def reference_sample(count, fraction, repetitions, seed) -> list[int]:
    """The bootstrap positions drawn the plain way, one position at a time."""
    rng = np.random.default_rng(seed)
    positions = []
    for _ in range(repetitions):
        draws = rng.random(count)
        positions.extend(i for i in range(count) if draws[i] < fraction)
    return positions


class TestStratifiedSample:
    def test_expected_size_within_tolerance(self):
        sample = stratified_sample(500, fraction=0.1, repetitions=10, seed=4)
        # expectation 500; binomial spread is far tighter than 15%
        assert 425 <= len(sample) <= 575

    def test_deterministic_per_seed(self):
        a = stratified_sample(200, 0.2, 3, seed=1)
        b = stratified_sample(200, 0.2, 3, seed=1)
        c = stratified_sample(200, 0.2, 3, seed=2)
        assert a.tolist() == b.tolist()
        assert a.tolist() != c.tolist()

    @pytest.mark.parametrize("count", [0, 1, 40])
    def test_full_fraction_repeats_every_position(self, count):
        sample = stratified_sample(count, fraction=1.0, repetitions=3, seed=0)
        assert sample.tolist() == list(range(count)) * 3

    def test_zero_fraction_empty(self):
        assert len(stratified_sample(40, 0.0, 5, seed=0)) == 0

    @settings(max_examples=200)
    @given(
        count=st.integers(0, 300),
        fraction=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        repetitions=st.integers(1, 5),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_equals_the_plain_draw_loop(self, count, fraction, repetitions, seed):
        # every stored model is trained on these rows, so the stream is pinned
        sample = stratified_sample(count, fraction, repetitions, seed)
        assert sample.dtype.kind == "i"
        assert sample.tolist() == reference_sample(count, fraction, repetitions, seed)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            stratified_sample(10, -0.1, 1, seed=0)
        with pytest.raises(ValueError):
            stratified_sample(10, 1.1, 1, seed=0)
        with pytest.raises(ValueError):
            stratified_sample(10, 0.5, 0, seed=0)


class TestEncodeActorEvents:
    @staticmethod
    def _encoder(events, time_mode=TimeMode.RAW) -> EncoderState:
        return EncoderState(
            geohash_precision=3,
            time_mode=time_mode,
            active_hours=observed_hours(events),
            indices=build_event_indices(events, 3),
            known_apps=build_superset(login_frequencies(events)).apps_for(events[0].actor_id),
        )

    @pytest.mark.parametrize("time_mode", list(TimeMode))
    def test_matrix_equals_stacked_encode_event_rows(self, corpus_events, time_mode):
        events = [e for e in corpus_events if e.actor_id == "u001"]
        encoder = self._encoder(events[: len(events) // 2], time_mode)
        rows = _encode_actor_events(events, encoder)
        assert rows.dtype == np.int64
        assert rows.shape == (len(events), len(FEATURE_ORDER))
        for row, event in zip(rows, events):
            expected = encode_event(event, encoder)
            assert tuple(row.tolist()) == expected
            # the time columns, against the calendar features of the instant
            hour, weekday = hour_and_weekday(event.timestamp)
            if time_mode is TimeMode.COARSE:
                time_columns = (int(hour in encoder.active_hours), int(weekday not in (1, 7)))
            else:
                time_columns = (hour, weekday)
            assert tuple(row[4:6].tolist()) == time_columns

    @pytest.mark.parametrize("time_mode", list(TimeMode))
    def test_rows_are_the_same_on_both_sides_of_the_column_threshold(
        self, corpus_events, time_mode, monkeypatch
    ):
        events = [e for e in corpus_events if e.actor_id == "u001"]
        encoder = self._encoder(events[: len(events) // 2], time_mode)
        scalar_calls = []
        scalar = pipeline_module.encode_event

        def counting_encode_event(event, encoder):
            scalar_calls.append(event)
            return scalar(event, encoder)

        monkeypatch.setattr(pipeline_module, "encode_event", counting_encode_event)
        threshold = COLUMN_ENCODE_MIN_EVENTS
        for count in (1, threshold - 1, threshold, threshold + 1, len(events)):
            batch = events[-count:]
            scalar_calls.clear()
            rows = _encode_actor_events(batch, encoder)
            # below the threshold each event goes through encode_event, from it none does
            assert len(scalar_calls) == (count if count < threshold else 0)
            assert [tuple(row) for row in rows.tolist()] == [
                scalar(event, encoder) for event in batch
            ]

    def test_no_events_give_an_empty_matrix(self):
        encoder = self._encoder(crafted_events("u1", 10))
        rows = _encode_actor_events([], encoder)
        assert rows.shape == (0, len(FEATURE_ORDER))
        assert rows.dtype == np.int64

    def test_mixed_actors_rejected(self):
        events = crafted_events("u1", 3) + crafted_events("u2", 3)
        with pytest.raises(ValueError, match="actors"):
            _encode_actor_events(events, self._encoder(events))


def field_names(cls) -> list[str]:
    return [f.name for f in dataclasses.fields(cls)]


CONFIG_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6)
    | st.sampled_from(["RAW", "COARSE", "CLIENT_INFO", "WEEKDAY"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
# JSON objects whose keys are mostly setting names, at each level of the config.
TRAIN_OBJECTS = st.dictionaries(
    st.sampled_from(field_names(TrainConfig)),
    CONFIG_VALUES | st.dictionaries(st.sampled_from(FEATURE_ORDER), CONFIG_VALUES, max_size=2),
    max_size=3,
)
INJECTION_LISTS = st.lists(
    st.dictionaries(st.sampled_from(field_names(InjectionSpec)), CONFIG_VALUES, max_size=3)
    | CONFIG_VALUES,
    max_size=2,
)
CONFIG_OBJECTS = st.dictionaries(
    st.sampled_from(field_names(PipelineConfig)) | st.text(max_size=6),
    CONFIG_VALUES | TRAIN_OBJECTS | INJECTION_LISTS,
    max_size=4,
)


class TestPipelineConfig:
    def test_round_trips_through_dict(self):
        config = PipelineConfig(
            min_events=150,
            time_mode=TimeMode.COARSE,
            train=TrainConfig(epochs=7, learning_rate=0.2),
            injections=[
                InjectionSpec(kind=InjectionKind.LOCATION, fraction=0.2),
                InjectionSpec(kind=InjectionKind.EVENT_HOUR, distance_miles=500.0),
            ],
        )
        restored = PipelineConfig.from_dict(config.to_dict())
        assert restored == config
        assert restored.config_hash() == config.config_hash()

    def test_to_dict_has_one_key_per_field(self):
        config = fast_config(train=TrainConfig(epochs=7, feature_weights={"geohash": 2.0}))
        out = config.to_dict()
        assert set(out) == {f.name for f in dataclasses.fields(PipelineConfig)}
        assert set(out["train"]) == {f.name for f in dataclasses.fields(TrainConfig)}
        assert PipelineConfig.from_dict(out) == config

    def test_from_dict_parses_nested_sections(self):
        config = PipelineConfig.from_dict(
            {
                "train": {"epochs": 3},
                "injections": [{"kind": "WEEKDAY", "fraction": 0.05}],
                "min_events": 10,
            }
        )
        assert config.train.epochs == 3
        assert config.injections[0].kind is InjectionKind.WEEKDAY
        assert config.min_events == 10

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            PipelineConfig.from_dict({"typo_key": 1})

    def test_misspelled_feature_weight_rejected(self):
        # the weight would otherwise be ignored, and geohash trained at 1.0
        with pytest.raises(ValueError, match="'geohsah'"):
            PipelineConfig.from_dict({"train": {"feature_weights": {"geohsah": 2.0}}})

    @pytest.mark.parametrize(
        "train, key",
        [
            ({"epochs": 3, "seed": 1}, "seed"),
            ({"epochs": 3, "typo_key": 1}, "typo_key"),
            # the loss is the weighted sum; no setting chooses it
            ({"loss_mode": "SUM"}, "loss_mode"),
        ],
        ids=["seed", "typo_key", "loss_mode"],
    )
    def test_unknown_train_keys_rejected(self, train, key):
        with pytest.raises(ValueError, match=rf"unknown config keys: \['train\.{key}'\]"):
            PipelineConfig.from_dict({"train": train})

    @pytest.mark.parametrize(
        "entry, message",
        [
            # an injection's seed comes from the config seed and the actor,
            # so a spec takes none
            (
                {"kind": "WEEKDAY", "seed": 0.2},
                r"unknown config keys: \['injections\[1\]\.seed'\]",
            ),
            (
                {"kind": "WEEKDAY", "fractoin": 0.2},
                r"unknown config keys: \['injections\[1\]\.fractoin'\]",
            ),
            ("LOCATION", r"injections\[1\] must be an object"),
        ],
        ids=["seed", "fractoin", "not-an-object"],
    )
    def test_unknown_injection_keys_rejected(self, entry, message):
        with pytest.raises(ValueError, match=message):
            PipelineConfig.from_dict({"injections": [{"kind": "LOCATION"}, entry]})

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"min_events": "a"}, "config key min_events must be an integer, got str"),
            ({"train": {"epochs": "x"}}, "config key train.epochs must be an integer, got str"),
            (
                {"geohash_precision": None},
                "config key geohash_precision must be an integer, got NoneType",
            ),
            ({"train": 5}, "config key train must be an object, got int"),
            ({"seed": True}, "config key seed must be an integer, got bool"),
            (
                {"train": {"feature_weights": {"geohash": "2"}}},
                "config key train.feature_weights.geohash must be a number, got str",
            ),
            (
                {"injections": [{"fraction": [0.1]}]},
                r"config key injections\[0\].fraction must be a number, got list",
            ),
            ({"injections": "LOCATION"}, "config key injections must be a list, got str"),
        ],
        ids=[
            "string-int", "string-train-int", "null-int", "int-train", "bool-int",
            "string-weight", "list-fraction", "string-injections",
        ],
    )
    def test_value_of_wrong_json_type_rejected(self, data, message):
        with pytest.raises(ValueError, match=message):
            PipelineConfig.from_dict(data)

    @settings(max_examples=200)
    @given(CONFIG_OBJECTS)
    def test_from_dict_returns_a_config_or_raises_value_error(self, data):
        try:
            config = PipelineConfig.from_dict(data)
        except ValueError:
            return
        assert isinstance(config, PipelineConfig)
        assert len(config.config_hash()) == 64

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"wilson_z": 0}, "wilson_z must be finite and > 0, got 0"),
            ({"wilson_z": -1.96}, "wilson_z must be finite and > 0, got -1.96"),
            ({"wilson_z": math.nan}, "wilson_z must be finite and > 0, got nan"),
            ({"wilson_z": math.inf}, "wilson_z must be finite and > 0, got inf"),
            ({"train": {"hidden_dim": 0}}, "hidden_dim must be >= 1, got 0"),
            ({"train": {"code_dim": -2}}, "code_dim must be >= 1, got -2"),
            # -1.0 makes every app known, 2.0 none
            ({"superset_threshold": -1.0}, r"superset_threshold must be in \[0, 1\], got -1.0"),
            ({"superset_threshold": 2.0}, r"superset_threshold must be in \[0, 1\], got 2.0"),
            ({"superset_threshold": math.nan}, r"superset_threshold must be in \[0, 1\], got nan"),
            # NaN makes every model NEEDS_RETRAIN
            ({"retrain_f1_floor": math.nan}, "retrain_f1_floor must be a number, got nan"),
            # every actor would diverge
            (
                {"train": {"learning_rate": math.nan}},
                "learning_rate must be finite and > 0, got nan",
            ),
            (
                {"train": {"learning_rate": math.inf}},
                "learning_rate must be finite and > 0, got inf",
            ),
            # each kind's sweep is kept once, so the second would replace the first
            (
                {"injections": [
                    {"kind": "LOCATION", "fraction": 0.1},
                    {"kind": "WEEKDAY"},
                    {"kind": "LOCATION", "fraction": 0.5},
                ]},
                r"injections\[2\] repeats kind LOCATION",
            ),
        ],
        ids=[
            "zero-wilson-z", "negative-wilson-z", "nan-wilson-z", "infinite-wilson-z",
            "zero-hidden-dim", "negative-code-dim",
            "negative-superset-threshold", "superset-threshold-above-1", "nan-superset-threshold",
            "nan-retrain-f1-floor", "nan-learning-rate", "infinite-learning-rate",
            "repeated-injection-kind",
        ],
    )
    def test_out_of_range_setting_refused_when_loaded(self, data, message):
        with pytest.raises(ValueError, match=message):
            PipelineConfig.from_dict(data)

    def test_hash_tracks_content(self):
        assert fast_config().config_hash() == fast_config().config_hash()
        assert fast_config().config_hash() != fast_config(seed=4).config_hash()

    def test_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(train_split=1.0)
        with pytest.raises(ValueError):
            PipelineConfig(geohash_precision=0)
        with pytest.raises(ValueError, match="geohash_precision"):
            PipelineConfig(geohash_precision=13)
        with pytest.raises(ValueError):
            PipelineConfig(min_events=1)
        with pytest.raises(ValueError):
            PipelineConfig(sample_repetitions=0)
        with pytest.raises(ValueError):
            PipelineConfig(injections=[])


class TestTrainWorkflow:
    def test_trains_every_eligible_actor(self, corpus_events, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        result = run_train_workflow(corpus_events, fast_config(), registry)
        assert list(result.entries) == ["u001", "u002"]
        assert result.skipped == {}
        for actor_id, entry in result.entries.items():
            assert entry.actor_id == actor_id
            # each sweep result is stored once, under its kind
            assert sorted(entry.metrics) == [
                "per_kind", "primary_kind", "sample_size", "train_size", "val_size"
            ]
            assert entry.metrics["primary_kind"] == "LOCATION"
            primary = primary_sweep(entry.metrics)
            assert primary is entry.metrics["per_kind"]["LOCATION"]
            assert primary["best_n"] in [i / 10 for i in range(101)]
            assert 0.0 <= primary["best_f1"] <= 1.0
            assert len(primary["f1_curve"]) == 101
            assert entry.metrics["train_size"] > entry.metrics["val_size"]
            assert entry.status in (EntryStatus.ACTIVE, EntryStatus.NEEDS_RETRAIN)
            assert entry.model.chosen_n == primary["best_n"]
        assert registry.actors() == ["u001", "u002"]

    def test_vocabularies_come_from_train_partition_only(self):
        # an app seen only in the last 20% must encode as out-of-vocabulary
        events = crafted_events(
            "u1", 250, app_at=lambda i: "app-valonly" if i >= 210 else "app-mail"
        )
        config = fast_config(train=TrainConfig(epochs=2))
        result = run_train_workflow(events, config)
        entry = result.entries["u1"]
        assert entry.metrics["train_size"] == 200
        assert entry.metrics["val_size"] == 50
        assert "app-mail" in entry.encoder.indices["app_id"]
        assert "app-valonly" not in entry.encoder.indices["app_id"]
        assert "app-valonly" not in entry.encoder.known_apps

    def test_small_actor_skipped_with_warning(self, corpus_events, caplog):
        events = corpus_events + crafted_events("tiny", 12)
        with caplog.at_level(logging.WARNING, logger="loginwatch.pipeline"):
            result = run_train_workflow(events, fast_config())
        assert result.skipped == {"tiny": "only 12 events, need 100"}
        assert list(result.entries) == ["u001", "u002"]
        summary = result.to_summary()
        assert summary["skipped"] == result.skipped
        assert any("skipping actor tiny" in r.getMessage() for r in caplog.records)
        assert set(summary["actors"]) == {"u001", "u002"}

    @pytest.mark.parametrize("actor", ["..", "../escaped", "{tmp}/abs", "a\\b", "nul\0byte"])
    def test_unsafe_actor_id_skipped_with_reason(self, tmp_path, actor):
        actor = actor.format(tmp=tmp_path)  # an absolute id inside the test's directory
        registry = ModelRegistry(tmp_path / "registry")
        events = crafted_events("u1", 120) + crafted_events(actor, 120)
        config = fast_config(train=TrainConfig(epochs=2))
        result = run_train_workflow(events, config, registry)
        assert list(result.skipped) == [actor]
        assert "directory name" in result.skipped[actor]
        assert list(result.entries) == ["u1"]
        summary = result.to_summary()
        assert summary["skipped"] == result.skipped
        assert set(summary["actors"]) == {"u1"}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["registry"]
        assert registry.actors() == ["u1"]

    def test_actor_without_coordinates_skipped_and_the_other_trains(
        self, corpus_events, tmp_path
    ):
        # LOCATION injection needs events with coordinates, and u002 has none
        events = [
            dataclasses.replace(e, latitude=None, longitude=None)
            if e.actor_id == "u002" else e
            for e in corpus_events
        ]
        registry = ModelRegistry(tmp_path / "registry")
        summary = run_train_workflow(events, fast_config(), registry).to_summary()
        assert set(summary["actors"]) == {"u001"}
        assert summary["skipped"]["u002"] == (
            "cannot validate: LOCATION: need 11 eligible events, have 0"
        )
        assert registry.actors() == ["u001"]

    def test_actor_with_degenerate_validation_skipped(self, corpus_events):
        # 2% of the 24 validation events of "small" rounds to no injection
        config = fast_config(
            injections=[InjectionSpec(kind=InjectionKind.LOCATION, fraction=0.02)],
            train=TrainConfig(epochs=2),
        )
        events = corpus_events + crafted_events("small", 120)
        summary = run_train_workflow(events, config).to_summary()
        assert set(summary["actors"]) == {"u001", "u002"}
        assert summary["skipped"]["small"] == (
            "cannot validate: sweep needs at least one injected and one normal event"
        )

    def test_single_valued_actor_skipped_and_the_others_train(self, corpus_events, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        config = fast_config(time_mode=TimeMode.COARSE, train=TrainConfig(epochs=2))
        events = corpus_events + single_valued_events("svc", 120)
        summary = run_train_workflow(events, config, registry).to_summary()
        assert summary["skipped"] == {"svc": "code_dim 8 must be < input_dim 8"}
        assert set(summary["actors"]) == {"u001", "u002"}
        assert registry.actors() == ["u001", "u002"]

    def test_job_rows_are_the_sampled_events_encoded(self):
        # three logins share each timestamp and arrive shuffled, so ties are
        # kept in input order
        events = [
            dataclasses.replace(e, timestamp=e.timestamp - timedelta(hours=i - i // 3))
            for i, e in enumerate(crafted_events("u1", 150, app_at=lambda i: f"app-{i % 7}"))
        ]
        events = [events[i] for i in np.random.default_rng(8).permutation(len(events))]
        config = fast_config()
        actor, reason = _prepare_actor("u1", events, config)
        assert reason is None
        ordered = sorted(range(150), key=lambda i: (events[i].timestamp, i))
        train_part = [events[i] for i in ordered[:120]]
        sample = stratified_sample(
            120, config.sample_fraction, config.sample_repetitions,
            _actor_seed(config.seed, "u1", "sample"),
        )
        expected = [encode_event(train_part[i], actor.encoder) for i in sample]
        assert [tuple(row) for row in actor.job.rows.tolist()] == expected
        assert len(set(expected)) > 1

    def test_empty_after_filter_raises(self):
        bare = crafted_events("u1", 5)
        other = [
            LogEvent(
                actor_id=e.actor_id,
                timestamp=e.timestamp,
                event_type="user.account.update_password",
                outcome=e.outcome,
            )
            for e in bare
        ]
        with pytest.raises(WorkflowError):
            run_train_workflow(other, fast_config())

    def test_summary_json_deterministic_across_runs(self, corpus_events):
        config = fast_config()
        first = run_train_workflow(corpus_events, config).to_summary_json()
        second = run_train_workflow(corpus_events, config).to_summary_json()
        assert first == second
        payload = json.loads(first)
        assert payload["config_hash"] == config.config_hash()
        assert set(payload["actors"]) == {"u001", "u002"}


class TestScoreWorkflow:
    @pytest.fixture()
    def trained_registry(self, corpus_events, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        run_train_workflow(corpus_events, fast_config(), registry)
        return registry

    def test_scores_known_actors(self, corpus_events, trained_registry):
        result = run_score_workflow(corpus_events, fast_config(), trained_registry)
        assert sorted(result.reports) == ["u001", "u002"]
        assert result.unscorable == []
        assert result.retrained == []
        for actor_id, report in result.reports.items():
            stored = trained_registry.load(actor_id)
            assert report.threshold_n == stored.model.chosen_n
            assert 0.0 <= report.anomaly_rate <= 1.0
        summary = json.loads(result.to_summary_json())
        assert summary["actors"]["u001"]["event_count"] > 0

    def test_unknown_actor_reported_unscorable(self, trained_registry):
        ghosts = crafted_events("ghost", 8)
        result = run_score_workflow(ghosts, fast_config(), trained_registry)
        assert result.unscorable == ["ghost"]
        assert result.reports == {}

    def test_unsafe_actor_id_reported_unscorable(self, tmp_path):
        # a model stored next to the registry must not be reachable through
        # an actor id that walks out of it
        config = fast_config(train=TrainConfig(epochs=2))
        run_train_workflow(crafted_events("victim", 120), config, ModelRegistry(tmp_path))
        (tmp_path / "registry").mkdir()
        registry = ModelRegistry(tmp_path / "registry")
        absolute = str(tmp_path / "victim")
        events = crafted_events("../victim", 8) + crafted_events(absolute, 8)
        result = run_score_workflow(events, config, registry)
        assert sorted(result.unscorable) == sorted(["../victim", absolute])
        assert result.reports == {}

    @pytest.mark.parametrize(
        "damage",
        [
            "emptied", "version_2_sealed", "theta_cut_sealed", "copied_from_u001",
            "feature_size_huge", "feature_size_infinite", *THETA_DAMAGE,
        ],
    )
    def test_corrupt_newest_model_leaves_other_actors_scored(
        self, corpus_events, trained_registry, damage, caplog
    ):
        newest = trained_registry.entry_paths("u002")[-1]
        if damage == "emptied":
            newest.write_bytes(b"")
        elif damage == "copied_from_u001":  # passes its checksum, names u001
            newest.write_bytes(trained_registry.entry_paths("u001")[-1].read_bytes())
        else:
            document = json.loads(newest.read_bytes())
            del document["checksum"]
            if damage == "version_2_sealed":
                document = version_2_document(document)
            elif damage == "feature_size_huge":  # a layout far too large to allocate
                document["model"]["feature_sizes"]["geohash"] = 10**15
            elif damage == "feature_size_infinite":  # json.loads reads Infinity
                document["model"]["feature_sizes"]["geohash"] = math.inf
            elif damage in THETA_DAMAGE:  # passes its checksum, but theta is not hex
                document["model"]["theta"] = THETA_DAMAGE[damage](document["model"]["theta"])
            else:  # passes its checksum, but theta is 6 bytes short
                document["model"]["theta"] = document["model"]["theta"][:-12]
            newest.write_bytes(seal_allowing_nan(document))
        with caplog.at_level(logging.WARNING, logger="loginwatch.pipeline"):
            result = run_score_workflow(corpus_events, fast_config(), trained_registry)
        assert sorted(result.reports) == ["u001"]
        assert result.unscorable == ["u002"]
        assert result.retrained == []
        assert str(newest) in caplog.text

    def test_nan_feature_weight_leaves_other_actors_scored_and_reported(
        self, corpus_events, trained_registry, tmp_path, capsys, caplog
    ):
        # a resealed document with a NaN weight passes its checksum, but its
        # model would give every login a NaN loss and flag none
        newest = trained_registry.entry_paths("u002")[-1]
        document = json.loads(newest.read_bytes())
        del document["checksum"]
        document["model"]["feature_weights"]["geohash"] = math.nan
        newest.write_bytes(seal_allowing_nan(document))
        with pytest.raises(RegistryIntegrityError, match="feature weight geohash"):
            trained_registry.load("u002")
        with caplog.at_level(logging.WARNING):
            result = run_score_workflow(corpus_events, fast_config(), trained_registry)
            code = main(["report", "--registry", str(trained_registry.root),
                         "--out-dir", str(tmp_path / "reports")])
        assert sorted(result.reports) == ["u001"]
        assert result.unscorable == ["u002"]
        assert result.retrained == []
        assert code == 0
        reported = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert reported["actors"] == 2
        assert reported["unreadable"] == ["u002"]
        assert str(newest) in caplog.text

    @pytest.mark.parametrize(
        "damage",
        [
            "extra_vocabulary", "precision_13", "vocabulary_string", "vocabulary_repeat",
            "precision_true", "precision_string", "hour_25", "known_apps_string",
        ],
    )
    def test_encoder_that_cannot_feed_its_model_leaves_other_actors_scored(
        self, corpus_events, trained_registry, damage, caplog
    ):
        # a resealed document passes its checksum, so only rebuilding the
        # encoder and checking it against the model stops it
        newest = trained_registry.entry_paths("u002")[-1]
        document = json.loads(newest.read_bytes())
        del document["checksum"]
        encoder = document["encoder"]
        apps = encoder["indices"]["app_id"]
        if damage == "extra_vocabulary":
            # five values that sort first push every known app past the model's table
            apps[:0] = ["!0", "!1", "!2", "!3", "!4"]
        elif damage == "vocabulary_string":  # as many characters as the model has apps
            encoder["indices"]["app_id"] = "".join(apps)[: len(apps)]
        elif damage == "vocabulary_repeat":  # the repeat would index past the table
            apps[-1] = apps[0]
        elif damage == "known_apps_string":  # a frozenset would take its characters
            encoder["known_apps"] = "".join(encoder["known_apps"])
        else:
            member, value = {
                "precision_13": ("geohash_precision", 13),
                "precision_true": ("geohash_precision", True),
                "precision_string": ("geohash_precision", "3"),
                "hour_25": ("active_hours", [25]),
            }[damage]
            encoder[member] = value
        newest.write_bytes(_seal(document))
        with pytest.raises(RegistryIntegrityError, match="not hold a valid model"):
            trained_registry.load("u002")
        with caplog.at_level(logging.WARNING, logger="loginwatch.pipeline"):
            result = run_score_workflow(corpus_events, fast_config(), trained_registry)
        assert sorted(result.reports) == ["u001"]
        assert result.unscorable == ["u002"]
        assert str(newest) in caplog.text

    @pytest.mark.parametrize("stored", ["same", "other", "no-hash", "no-metadata"])
    def test_config_drift_warns_and_still_scores(
        self, corpus_events, trained_registry, caplog, stored
    ):
        config = fast_config()
        expected = run_score_workflow(corpus_events, config, trained_registry).reports
        newest = trained_registry.entry_paths("u002")[-1]
        document = json.loads(newest.read_bytes())
        del document["checksum"]
        assert document["metadata"]["config_hash"] == config.config_hash()
        if stored == "other":
            document["metadata"]["config_hash"] = "f" * 64
        elif stored == "no-hash":
            del document["metadata"]["config_hash"]
        elif stored == "no-metadata":
            del document["metadata"]
        newest.write_bytes(_seal(document))
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="loginwatch.pipeline"):
            result = run_score_workflow(corpus_events, config, trained_registry)
        drift = [r.getMessage() for r in caplog.records if "config drift" in r.getMessage()]
        if stored == "other":
            assert len(drift) == 1
            assert drift[0].startswith("config drift for u002: ")
            assert "f" * 64 in drift[0] and config.config_hash() in drift[0]
        else:
            assert drift == []
        assert sorted(result.reports) == ["u001", "u002"]
        for actor_id, report in result.reports.items():
            assert np.array_equal(report.losses, expected[actor_id].losses)
            assert np.array_equal(report.flagged, expected[actor_id].flagged)

    def test_empty_batch_gives_an_empty_result(self, corpus_events, trained_registry):
        password_changes = [
            dataclasses.replace(e, event_type="user.account.update_password")
            for e in corpus_events
        ]
        for events in ([], password_changes):
            result = run_score_workflow(events, fast_config(), trained_registry)
            assert result.to_summary() == {"actors": {}, "retrained": [], "unscorable": []}

    def test_needs_retrain_triggers_retrain(self, corpus_events, trained_registry):
        entry = trained_registry.load("u001")
        entry.status = EntryStatus.NEEDS_RETRAIN
        trained_registry.save(entry)
        before = len(trained_registry.entry_paths("u001"))
        result = run_score_workflow(corpus_events, fast_config(), trained_registry)
        assert "u001" in result.retrained
        assert len(trained_registry.entry_paths("u001")) == before + 1
        assert "u001" in result.reports

    def test_retrain_fits_on_the_live_events_it_scores(
        self, corpus_events, trained_registry
    ):
        entry = trained_registry.load("u001")
        entry.status = EntryStatus.NEEDS_RETRAIN
        trained_registry.save(entry)
        config = fast_config()
        result = run_score_workflow(corpus_events, config, trained_registry)
        assert result.retrained == ["u001"]

        live = [
            e for e in filter_entry_events(corpus_events, config.filter_mode)
            if e.actor_id == "u001"
        ]
        ordered = sorted(live, key=lambda e: e.timestamp)
        fitted = ordered[: int(len(live) * config.train_split)]
        digest = hashlib.sha256()
        for event in fitted:
            digest.update(event.to_json_line().encode("utf-8") + b"\n")
        fresh = trained_registry.load("u001")
        assert fresh.metadata["dataset_hash"] == digest.hexdigest()
        assert fresh.metrics["train_size"] == len(fitted)

        report = result.reports["u001"]
        assert report.threshold_n == fresh.model.chosen_n
        assert len(report.losses) == len(live)

    def test_retrain_that_cannot_fit_scores_with_the_stored_model(
        self, corpus_events, tmp_path, caplog
    ):
        config = fast_config(time_mode=TimeMode.COARSE, train=TrainConfig(epochs=2))
        registry = ModelRegistry(tmp_path / "registry")
        run_train_workflow(corpus_events, config, registry)
        entry = registry.load("u001")
        entry.status = EntryStatus.NEEDS_RETRAIN
        registry.save(entry)
        before = len(registry.entry_paths("u001"))
        live = single_valued_events("u001", 120)
        with caplog.at_level(logging.WARNING, logger="loginwatch.pipeline"):
            result = run_score_workflow(live, config, registry)
        assert result.retrained == [] and result.unscorable == []
        assert len(result.reports["u001"].losses) == 120
        assert result.reports["u001"].threshold_n == entry.model.chosen_n
        assert len(registry.entry_paths("u001")) == before
        assert any(
            "retrain of u001 failed (code_dim 8 must be < input_dim 8)" in r.getMessage()
            for r in caplog.records
        )

    def test_stale_model_scores_when_too_few_new_events(
        self, corpus_events, trained_registry
    ):
        entry = trained_registry.load("u001")
        entry.status = EntryStatus.NEEDS_RETRAIN
        trained_registry.save(entry)
        before = len(trained_registry.entry_paths("u001"))
        config = fast_config(min_events=10_000)
        result = run_score_workflow(corpus_events, config, trained_registry)
        assert result.retrained == []
        assert len(trained_registry.entry_paths("u001")) == before
        assert "u001" in result.reports


class TestCli:
    def test_full_command_chain(self, tmp_path, capsys):
        raw = tmp_path / "raw.jsonl"
        flat = tmp_path / "events.jsonl"
        superset = tmp_path / "superset.jsonl"
        registry = tmp_path / "registry"
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps({"min_events": 100, "seed": 3, "train": {"epochs": 10}})
        )

        assert main(["synth", "--actors", "2", "--days", "25", "--seed", "3",
                     "--out", str(raw)]) == 0
        synth_info = json.loads(capsys.readouterr().out)
        assert synth_info["written"] > 0

        assert main(["ingest", "--input", str(raw), "--out", str(flat),
                     "--filter", "SIGN_ON"]) == 0
        ingest_info = json.loads(capsys.readouterr().out)
        assert ingest_info["rejected"] == 0
        assert ingest_info["written"] == synth_info["written"]

        assert main(["profile", "--input", str(flat), "--out", str(superset)]) == 0
        profile_info = json.loads(capsys.readouterr().out)
        assert profile_info["actors"] == 2
        assert len(superset.read_text().splitlines()) == 2

        train_summary = tmp_path / "train_summary.json"
        assert main(["train", "--input", str(flat), "--config", str(config_path),
                     "--registry", str(registry), "--summary", str(train_summary)]) == 0
        printed = json.loads(capsys.readouterr().out)
        on_disk = json.loads(train_summary.read_text())
        assert printed == on_disk
        assert set(on_disk["actors"]) == {"u001", "u002"}

        scores = tmp_path / "scores.jsonl"
        score_summary = tmp_path / "score_summary.json"
        assert main(["score", "--input", str(flat), "--config", str(config_path),
                     "--registry", str(registry), "--out", str(scores),
                     "--summary", str(score_summary)]) == 0
        capsys.readouterr()
        lines = scores.read_text().splitlines()
        assert len(lines) == ingest_info["written"]
        record = json.loads(lines[0])
        assert {"position", "actor_id", "loss", "classification"} <= set(record)

        reports = tmp_path / "reports"
        assert main(["report", "--registry", str(registry),
                     "--out-dir", str(reports)]) == 0
        capsys.readouterr()
        curve = (reports / "f1_curve_u001.csv").read_text().splitlines()
        assert curve[0] == "n,f1"
        assert len(curve) == 102
        losses = (reports / "loss_epochs_u001.csv").read_text().splitlines()
        assert losses[0] == "epoch,mean_loss"
        assert len(losses) == 11

    def test_score_out_records(self, tmp_path, capsys):
        registry = tmp_path / "registry"
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps({"min_events": 100, "seed": 3, "train": {"epochs": 2}})
        )
        history = tmp_path / "history.jsonl"
        write_events(crafted_events("u1", 120) + crafted_events("u2", 120), history)
        assert main(["train", "--input", str(history), "--config", str(config_path),
                     "--registry", str(registry)]) == 0
        # every event twice, so equal losses must fall back to position order
        live = [
            event
            for event in crafted_events("u2", 30) + crafted_events("u1", 40)
            for _ in range(2)
        ]
        live_path = tmp_path / "live.jsonl"
        write_events(live, live_path)
        scores = tmp_path / "scores.jsonl"
        assert main(["score", "--input", str(live_path), "--config", str(config_path),
                     "--registry", str(registry), "--out", str(scores)]) == 0
        capsys.readouterr()

        lines = scores.read_text(encoding="utf-8").splitlines()
        records = [json.loads(line) for line in lines]
        assert lines == [json.dumps(r, sort_keys=True) for r in records]
        assert all(
            set(r) == {"actor_id", "classification", "label", "loss", "position"}
            and r["label"] is None
            for r in records
        )
        assert [r["actor_id"] for r in records] == ["u1"] * 80 + ["u2"] * 60
        for actor_id, count in (("u1", 80), ("u2", 60)):
            mine = [r for r in records if r["actor_id"] == actor_id]
            keys = [(-r["loss"], r["position"]) for r in mine]
            assert keys == sorted(keys)
            assert len(set(r["loss"] for r in mine)) < count  # ties did occur
            assert sorted(r["position"] for r in mine) == list(range(count))

            entry = ModelRegistry(registry).load(actor_id)
            model = entry.model
            rows = _encode_actor_events(
                [e for e in live if e.actor_id == actor_id], entry.encoder
            )
            losses = model.losses(rows)
            cut = model.train_mu + model.chosen_n * model.train_sigma
            for r in mine:
                assert r["loss"] == losses[r["position"]]
                assert (r["classification"] == "ANOMALY") == (r["loss"] > cut)

    @pytest.mark.parametrize("event_type", [None, "user.account.update_password"])
    def test_score_of_an_empty_batch_exits_zero(self, tmp_path, capsys, event_type):
        registry = tmp_path / "registry"
        run_train_workflow(
            crafted_events("u1", 120), fast_config(train=TrainConfig(epochs=2)),
            ModelRegistry(registry),
        )
        live = tmp_path / "live.jsonl"
        if event_type is None:
            live.write_text("")
        else:  # every event is filtered out
            write_events(
                [dataclasses.replace(e, event_type=event_type)
                 for e in crafted_events("u1", 5)],
                live,
            )
        scores = tmp_path / "scores.jsonl"
        summary = tmp_path / "summary.json"
        assert main(["score", "--input", str(live), "--registry", str(registry),
                     "--out", str(scores), "--summary", str(summary)]) == 0
        capsys.readouterr()
        assert scores.read_bytes() == b""
        assert json.loads(summary.read_text()) == {
            "actors": {}, "retrained": [], "unscorable": []
        }

    def test_score_warns_about_rejected_records(self, tmp_path, capsys, caplog):
        registry = tmp_path / "registry"
        run_train_workflow(
            crafted_events("u1", 120), fast_config(train=TrainConfig(epochs=2)),
            ModelRegistry(registry),
        )
        live = tmp_path / "live.jsonl"
        write_events(crafted_events("u1", 5), live)
        with open(live, "a", encoding="utf-8") as handle:  # a raw record without actor.id
            handle.write(json.dumps({"eventType": "user.authentication.sso"}) + "\n")
        with caplog.at_level(logging.WARNING):
            assert main(["score", "--input", str(live), "--registry", str(registry)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["actors"]["u1"]["event_count"] == 5
        assert "1 records were rejected during ingest" in [
            r.getMessage() for r in caplog.records
        ]

    def test_profile_warns_about_rejected_records(self, tmp_path, capsys, caplog):
        live = tmp_path / "live.jsonl"
        write_events(crafted_events("u1", 5), live)
        with open(live, "a", encoding="utf-8") as handle:  # a raw record without actor.id
            handle.write(json.dumps({"eventType": "user.authentication.sso"}) + "\n")
        out = tmp_path / "superset.jsonl"
        with caplog.at_level(logging.WARNING):
            assert main(["profile", "--input", str(live), "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["actors"] == 1
        assert "1 records were rejected during ingest" in [
            r.getMessage() for r in caplog.records
        ]

    def test_train_summary_does_not_depend_on_where_the_registry_lives(
        self, tmp_path, capsys, monkeypatch
    ):
        raw = tmp_path / "raw.jsonl"
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps({"min_events": 100, "seed": 3, "train": {"epochs": 2}})
        )
        assert main(["synth", "--actors", "2", "--days", "25", "--seed", "3",
                     "--out", str(raw)]) == 0
        monkeypatch.chdir(tmp_path)
        train = ["train", "--input", str(raw), "--config", str(config_path)]
        # the first run uses the default directory, ./registry
        assert main(train + ["--summary", "first.json"]) == 0
        assert main(train + ["--registry", str(tmp_path / "elsewhere"),
                             "--summary", "second.json"]) == 0
        capsys.readouterr()
        assert ModelRegistry(tmp_path / "registry").actors() == ["u001", "u002"]
        assert ModelRegistry(tmp_path / "elsewhere").actors() == ["u001", "u002"]
        first = (tmp_path / "first.json").read_bytes()
        assert first == (tmp_path / "second.json").read_bytes()
        config = PipelineConfig.from_dict(json.loads(config_path.read_text()))
        assert json.loads(first)["config_hash"] == config.config_hash()

    def test_report_refuses_unsafe_actor_directory(self, tmp_path, capsys):
        # the registry never creates such a directory, but one can be put there
        registry = tmp_path / "registry"
        config = fast_config(train=TrainConfig(epochs=2))
        run_train_workflow(crafted_events("u1", 120), config, ModelRegistry(registry))
        shutil.copytree(registry / "u1", registry / "a\\b")
        reports = tmp_path / "reports"
        code = main(["report", "--registry", str(registry), "--out-dir", str(reports)])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "UnsafeActorIdError"
        assert not (reports / "f1_curve_a\\b.csv").exists()

    def test_report_skips_a_refused_model(self, tmp_path, capsys, caplog):
        registry = tmp_path / "registry"
        config = fast_config(train=TrainConfig(epochs=2))
        events = crafted_events("u1", 120) + crafted_events("u2", 120)
        run_train_workflow(events, config, ModelRegistry(registry))
        refused = ModelRegistry(registry).entry_paths("u1")[-1]
        refused.write_bytes(b"")
        reports = tmp_path / "reports"
        with caplog.at_level(logging.WARNING, logger="loginwatch.cli"):
            code = main(["report", "--registry", str(registry), "--out-dir", str(reports)])
        assert code == 0
        printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert printed["actors"] == 2
        assert printed["unreadable"] == ["u1"]
        assert printed["files"] == [
            str(reports / "f1_curve_u2.csv"), str(reports / "loss_epochs_u2.csv")
        ]
        assert sorted(p.name for p in reports.iterdir()) == [
            "f1_curve_u2.csv", "loss_epochs_u2.csv"
        ]
        assert str(refused) in caplog.text

    @pytest.mark.parametrize("stray", ["directory", "dangling_link"])
    def test_stray_newest_entry_leaves_only_its_actor_unscorable(
        self, tmp_path, capsys, caplog, stray
    ):
        # a name that sorts newest but cannot be read as a file
        registry = tmp_path / "registry"
        events = crafted_events("u1", 120) + crafted_events("u2", 120)
        config = fast_config(train=TrainConfig(epochs=2))
        run_train_workflow(events, config, ModelRegistry(registry))
        entry = registry / "u1" / "99999999T000000.000000Z.model"
        if stray == "directory":
            entry.mkdir()
        else:
            entry.symlink_to(tmp_path / "nowhere.model")
        assert ModelRegistry(registry).entry_paths("u1")[-1] == entry
        live = tmp_path / "live.jsonl"
        write_events(events, live)
        reports = tmp_path / "reports"
        with caplog.at_level(logging.WARNING):
            assert main(["score", "--input", str(live), "--registry", str(registry)]) == 0
            scored = json.loads(capsys.readouterr().out)
            assert main(["report", "--registry", str(registry), "--out-dir", str(reports)]) == 0
            reported = json.loads(capsys.readouterr().out)
        assert scored["unscorable"] == ["u1"]
        assert sorted(scored["actors"]) == ["u2"]
        assert reported["unreadable"] == ["u1"]
        assert sorted(p.name for p in reports.iterdir()) == [
            "f1_curve_u2.csv", "loss_epochs_u2.csv"
        ]
        assert f"{entry} cannot be read" in caplog.text

    def test_document_filed_under_another_actor_is_refused(self, tmp_path, capsys, caplog):
        registry = tmp_path / "registry"
        events = crafted_events("u1", 120) + crafted_events("u2", 120)
        config = fast_config(train=TrainConfig(epochs=2))
        run_train_workflow(events, config, ModelRegistry(registry))
        copied = ModelRegistry(registry).entry_paths("u2")[-1]
        copied.write_bytes(ModelRegistry(registry).entry_paths("u1")[-1].read_bytes())
        live = tmp_path / "live.jsonl"
        write_events(events, live)
        scores = tmp_path / "scores.jsonl"
        reports = tmp_path / "reports"
        with caplog.at_level(logging.WARNING):
            assert main(["score", "--input", str(live), "--registry", str(registry),
                         "--out", str(scores)]) == 0
            scored = json.loads(capsys.readouterr().out)
            assert main(["report", "--registry", str(registry), "--out-dir", str(reports)]) == 0
            reported = json.loads(capsys.readouterr().out)
        assert scored["unscorable"] == ["u2"]
        assert sorted(scored["actors"]) == ["u1"]
        records = [json.loads(line) for line in scores.read_text().splitlines()]
        assert len(records) == 120
        assert {r["actor_id"] for r in records} == {"u1"}
        assert reported["unreadable"] == ["u2"]
        assert sorted(p.name for p in reports.iterdir()) == [
            "f1_curve_u1.csv", "loss_epochs_u1.csv"
        ]
        assert str(copied) in caplog.text

    @pytest.mark.parametrize(
        "damage",
        ["curve_value", "curve_missing", "primary_kind_unknown", "per_kind_list",
         "epoch_losses_string"],
    )
    def test_report_skips_a_model_whose_curve_is_not_numbers(
        self, tmp_path, capsys, caplog, damage
    ):
        # metrics are free-form, and a resealed document passes its checksum
        registry = tmp_path / "registry"
        events = crafted_events("u1", 120) + crafted_events("u2", 120)
        config = fast_config(train=TrainConfig(epochs=2))
        run_train_workflow(events, config, ModelRegistry(registry))
        damaged = ModelRegistry(registry).entry_paths("u1")[-1]
        document = json.loads(damaged.read_bytes())
        del document["checksum"]
        metrics = document["metrics"]
        if damage == "curve_value":
            metrics["per_kind"][metrics["primary_kind"]]["f1_curve"] = [0.5, "x"]
        elif damage == "curve_missing":
            del metrics["per_kind"][metrics["primary_kind"]]["f1_curve"]
        elif damage == "primary_kind_unknown":
            metrics["primary_kind"] = "NOVEL"
        elif damage == "per_kind_list":
            metrics["per_kind"] = [metrics["per_kind"]]
        else:
            document["model"]["epoch_losses"] = "0.25"
        damaged.write_bytes(_seal(document))
        reports = tmp_path / "reports"
        with caplog.at_level(logging.WARNING, logger="loginwatch.cli"):
            code = main(["report", "--registry", str(registry), "--out-dir", str(reports)])
        assert code == 0
        printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert printed["unreadable"] == ["u1"]
        assert sorted(p.name for p in reports.iterdir()) == [
            "f1_curve_u2.csv", "loss_epochs_u2.csv"
        ]
        assert str(damaged) in caplog.text

    def test_failure_exits_nonzero_with_json_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.jsonl"
        code = main(["ingest", "--input", str(missing), "--out", str(tmp_path / "o")])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "FileNotFoundError"
        assert "missing.jsonl" in err["message"]
