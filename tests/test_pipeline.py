"""Tests for the train/score workflows, sampling, config, and the CLI."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import shutil
from collections import Counter
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from loginwatch.apps import build_superset, login_frequencies
from loginwatch.cli import main
from loginwatch.encoding import (
    FEATURE_ORDER,
    TimeMode,
    build_event_indices,
    encode_event,
    observed_hours,
)
from loginwatch.events import (
    LogEvent,
    Outcome,
    filter_entry_events,
    parse_event,
    write_events,
)
from loginwatch.inject import InjectionKind, InjectionSpec
from loginwatch.model import TrainConfig
from loginwatch.pipeline import (
    PipelineConfig,
    WorkflowError,
    _encode_actor_events,
    run_score_workflow,
    run_train_workflow,
    stratified_sample,
)
from loginwatch.registry import EncoderState, EntryStatus, ModelRegistry, _seal
from loginwatch.synth import generate_corpus

from test_registry import version_2_document


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


class TestStratifiedSample:
    def test_expected_size_within_tolerance(self):
        events = crafted_events("u1", 500)
        sample = stratified_sample(events, fraction=0.1, repetitions=10, seed=4)
        # expectation 500; binomial spread is far tighter than 15%
        assert 425 <= len(sample) <= 575

    def test_deterministic_per_seed(self):
        events = crafted_events("u1", 200)
        a = stratified_sample(events, 0.2, 3, seed=1)
        b = stratified_sample(events, 0.2, 3, seed=1)
        c = stratified_sample(events, 0.2, 3, seed=2)
        assert a == b
        assert a != c

    def test_full_fraction_repeats_every_event(self):
        events = crafted_events("u1", 40)
        sample = stratified_sample(events, fraction=1.0, repetitions=3, seed=0)
        assert len(sample) == 120
        counts = Counter(id(e) for e in sample)
        assert all(v == 3 for v in counts.values())

    def test_zero_fraction_empty(self):
        events = crafted_events("u1", 40)
        assert stratified_sample(events, 0.0, 5, seed=0) == []

    def test_samples_every_actor(self):
        events = crafted_events("u1", 300) + crafted_events("u2", 300)
        sample = stratified_sample(events, 0.2, 10, seed=7)
        counts = Counter(e.actor_id for e in sample)
        # both actors contribute near their expectation of 600
        assert 450 <= counts["u1"] <= 750
        assert 450 <= counts["u2"] <= 750

    def test_rejects_bad_arguments(self):
        events = crafted_events("u1", 10)
        with pytest.raises(ValueError):
            stratified_sample(events, -0.1, 1, seed=0)
        with pytest.raises(ValueError):
            stratified_sample(events, 1.1, 1, seed=0)
        with pytest.raises(ValueError):
            stratified_sample(events, 0.5, 0, seed=0)


class TestEncodeActorEvents:
    @staticmethod
    def _encoder(events, time_mode=TimeMode.RAW) -> EncoderState:
        return EncoderState(
            geohash_precision=3,
            time_mode=time_mode,
            active_hours=observed_hours(events),
            indices=build_event_indices(events, 3),
            superset=build_superset(login_frequencies(events)),
        )

    @pytest.mark.parametrize("time_mode", list(TimeMode))
    def test_matrix_equals_stacked_encode_event_rows(self, corpus_events, time_mode):
        events = [e for e in corpus_events if e.actor_id == "u001"]
        encoder = self._encoder(events[: len(events) // 2], time_mode)
        rows = _encode_actor_events(events, encoder)
        assert rows.dtype == np.int64
        assert rows.shape == (len(events), len(FEATURE_ORDER))
        for row, event in zip(rows, events):
            expected = encode_event(
                event,
                encoder.superset.known_app(event.actor_id, event.app_id),
                encoder.indices,
                precision=encoder.geohash_precision,
                time_mode=encoder.time_mode,
                active_hours=encoder.active_hours,
            )
            assert tuple(row.tolist()) == expected

    def test_no_events_give_an_empty_matrix(self):
        encoder = self._encoder(crafted_events("u1", 10))
        rows = _encode_actor_events([], encoder)
        assert rows.shape == (0, len(FEATURE_ORDER))
        assert rows.dtype == np.int64

    def test_mixed_actors_rejected(self):
        events = crafted_events("u1", 3) + crafted_events("u2", 3)
        with pytest.raises(ValueError, match="actors"):
            _encode_actor_events(events, self._encoder(events))


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
                "train": {"epochs": 3, "loss_mode": "PRODUCT"},
                "injections": [{"kind": "WEEKDAY", "fraction": 0.05}],
                "min_events": 10,
            }
        )
        assert config.train.epochs == 3
        assert config.train.loss_mode.value == "PRODUCT"
        assert config.injections[0].kind is InjectionKind.WEEKDAY
        assert config.min_events == 10

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            PipelineConfig.from_dict({"typo_key": 1})

    @pytest.mark.parametrize("key", ["seed", "typo_key"])
    def test_unknown_train_keys_rejected(self, key):
        with pytest.raises(ValueError, match=rf"unknown config keys: \['train\.{key}'\]"):
            PipelineConfig.from_dict({"train": {"epochs": 3, key: 1}})

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

    def test_hash_tracks_content(self):
        assert fast_config().config_hash() == fast_config().config_hash()
        assert fast_config().config_hash() != fast_config(seed=4).config_hash()

    def test_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(train_split=1.0)
        with pytest.raises(ValueError):
            PipelineConfig(geohash_precision=0)
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
        assert [r.actor_id for r in result.reports] == ["u001", "u002"]
        assert all(r.trained for r in result.reports)
        for entry in result.entries:
            assert entry.metrics["best_n"] in [i / 10 for i in range(101)]
            assert 0.0 <= entry.metrics["best_f1"] <= 1.0
            assert len(entry.metrics["f1_curve"]) == 101
            assert entry.metrics["train_size"] > entry.metrics["val_size"]
            assert entry.status in (EntryStatus.ACTIVE, EntryStatus.NEEDS_RETRAIN)
            assert entry.model.chosen_n == entry.metrics["best_n"]
            assert "LOCATION" in entry.metrics["per_kind"]
        assert registry.actors() == ["u001", "u002"]

    def test_vocabularies_come_from_train_partition_only(self):
        # an app seen only in the last 20% must encode as out-of-vocabulary
        events = crafted_events(
            "u1", 250, app_at=lambda i: "app-valonly" if i >= 210 else "app-mail"
        )
        config = fast_config(train=TrainConfig(epochs=2))
        result = run_train_workflow(events, config)
        entry = result.reports[0].entry
        assert entry is not None
        assert entry.metrics["train_size"] == 200
        assert entry.metrics["val_size"] == 50
        assert entry.encoder.indices["app_id"].index_of("app-mail") > 0
        assert entry.encoder.indices["app_id"].index_of("app-valonly") == 0
        assert "app-valonly" not in entry.encoder.superset.apps_for("u1")

    def test_small_actor_skipped_with_warning(self, corpus_events, caplog):
        events = corpus_events + crafted_events("tiny", 12)
        with caplog.at_level(logging.WARNING, logger="loginwatch.pipeline"):
            result = run_train_workflow(events, fast_config())
        summary = result.to_summary()
        assert "tiny" in summary["skipped"]
        assert "12 events" in summary["skipped"]["tiny"]
        assert any("skipping actor tiny" in r.getMessage() for r in caplog.records)
        assert set(summary["actors"]) == {"u001", "u002"}

    @pytest.mark.parametrize("actor", ["..", "../escaped", "{tmp}/abs", "a\\b", "nul\0byte"])
    def test_unsafe_actor_id_skipped_with_reason(self, tmp_path, actor):
        actor = actor.format(tmp=tmp_path)  # an absolute id inside the test's directory
        registry = ModelRegistry(tmp_path / "registry")
        events = crafted_events("u1", 120) + crafted_events(actor, 120)
        config = fast_config(train=TrainConfig(epochs=2))
        summary = run_train_workflow(events, config, registry).to_summary()
        assert "directory name" in summary["skipped"][actor]
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

    @pytest.mark.parametrize("damage", ["emptied", "version_2_sealed", "theta_cut_sealed"])
    def test_corrupt_newest_model_leaves_other_actors_scored(
        self, corpus_events, trained_registry, damage, caplog
    ):
        newest = trained_registry.entry_paths("u002")[-1]
        if damage == "emptied":
            newest.write_bytes(b"")
        else:
            document = json.loads(newest.read_bytes())
            del document["checksum"]
            if damage == "version_2_sealed":
                document = version_2_document(document)
            else:  # passes its checksum, but theta is 9 bytes short
                document["model"]["theta"] = document["model"]["theta"][:-12]
            newest.write_bytes(_seal(document))
        with caplog.at_level(logging.WARNING, logger="loginwatch.pipeline"):
            result = run_score_workflow(corpus_events, fast_config(), trained_registry)
        assert sorted(result.reports) == ["u001"]
        assert result.unscorable == ["u002"]
        assert result.retrained == []
        assert str(newest) in caplog.text

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

    def test_failure_exits_nonzero_with_json_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.jsonl"
        code = main(["ingest", "--input", str(missing), "--out", str(tmp_path / "o")])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "FileNotFoundError"
        assert "missing.jsonl" in err["message"]
