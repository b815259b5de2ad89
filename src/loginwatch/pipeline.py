"""End-to-end training and scoring workflows.

Training runs in three phases. First, per actor: filter the stream, split
train/validation by time order, learn vocabularies and the actor's known
apps from the training side only, encode the training side once and
bootstrap-sample positions into its rows, and inject labelled anomalies
into the validation side. Then one ``train`` call fits
every prepared actor's autoencoder in one stacked SGD loop. Last, per
actor: sweep the threshold multiplier and persist the model with its
encoder state and metrics. An actor that fails a step is skipped with a
reason; the others carry on.

Scoring: load each actor's newest model, re-encode live events with the
stored vocabularies, and report per-event losses and classifications.
Actors whose stored model is flagged NEEDS_RETRAIN are retrained first when
enough new events arrived.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from loginwatch.apps import (
    DEFAULT_SUPERSET_THRESHOLD,
    DEFAULT_Z,
    build_superset,
    login_frequencies,
)
from loginwatch.detect import (
    DetectionReport,
    LossStats,
    SweepResult,
    check_injected,
    score_events,
    sweep_threshold,
)
from loginwatch.encoding import (
    DEFAULT_GEOHASH_PRECISION,
    FEATURE_ORDER,
    EncoderState,
    TimeMode,
    build_event_indices,
    embedding_dim,
    encode_columns,
    encode_event,
    observed_hours,
)
from loginwatch.events import FilterMode, LogEvent, filter_entry_events
from loginwatch.geo import MAX_GEOHASH_PRECISION
from loginwatch.inject import InjectionKind, InjectionSpec, Label, inject
from loginwatch.model import (
    Autoencoder,
    TrainConfig,
    TrainingDivergedError,
    TrainJob,
    train,
)
from loginwatch.registry import (
    DEFAULT_NAME_MAX,
    EntryStatus,
    ModelRegistry,
    RegistryEntry,
    RegistryIntegrityError,
    RegistryNotFoundError,
    UnsafeActorIdError,
    check_actor_id,
)

logger = logging.getLogger(__name__)

DEFAULT_MIN_EVENTS = 200
DEFAULT_TRAIN_SPLIT = 0.8
DEFAULT_RETRAIN_F1_FLOOR = 0.7
DEFAULT_SAMPLE_FRACTION = 0.1
DEFAULT_SAMPLE_REPETITIONS = 10


class WorkflowError(RuntimeError):
    """The workflow cannot proceed (for example, no eligible actors)."""


def _json_type(default) -> tuple[type | tuple[type, ...], str]:
    """The JSON type a config value must have, judged by its field's default."""
    if isinstance(default, Enum):  # str Enums, named by their string values
        return str, "a string"
    if isinstance(default, float):
        return (int, float), "a number"
    if isinstance(default, int):
        return int, "an integer"
    if isinstance(default, list):
        return list, "a list"
    return Mapping, "an object"  # a nested config, or a table of weights


def _check_config(cls, data: Mapping, prefix: str = "") -> None:
    """Refuse config keys that name no field of the dataclass ``cls``, and
    values whose JSON type does not fit their field."""
    defaults = {
        f.name: f.default_factory() if f.default is dataclasses.MISSING else f.default
        for f in dataclasses.fields(cls)
    }
    unknown = set(data) - set(defaults)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(f'{prefix}{key}' for key in unknown)}")
    for key, value in data.items():
        kinds, expected = _json_type(defaults[key])
        # JSON true/false decode to bool, an int subclass, and fit no config key
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise ValueError(
                f"config key {prefix}{key} must be {expected}, got {type(value).__name__}"
            )


@dataclass
class PipelineConfig:
    """Knobs for the train and score workflows."""

    filter_mode: FilterMode = FilterMode.SIGN_ON
    time_mode: TimeMode = TimeMode.RAW
    geohash_precision: int = DEFAULT_GEOHASH_PRECISION
    wilson_z: float = DEFAULT_Z
    superset_threshold: float = DEFAULT_SUPERSET_THRESHOLD
    sample_fraction: float = DEFAULT_SAMPLE_FRACTION
    sample_repetitions: int = DEFAULT_SAMPLE_REPETITIONS
    min_events: int = DEFAULT_MIN_EVENTS
    train_split: float = DEFAULT_TRAIN_SPLIT
    retrain_f1_floor: float = DEFAULT_RETRAIN_F1_FLOOR
    seed: int = 0
    train: TrainConfig = field(default_factory=TrainConfig)
    injections: list[InjectionSpec] = field(
        default_factory=lambda: [InjectionSpec(kind=InjectionKind.LOCATION)]
    )

    def __post_init__(self):
        self.filter_mode = FilterMode(self.filter_mode)
        self.time_mode = TimeMode(self.time_mode)
        if not 1 <= self.geohash_precision <= MAX_GEOHASH_PRECISION:
            raise ValueError(f"geohash_precision must be in 1..{MAX_GEOHASH_PRECISION}")
        if not 0.0 < self.wilson_z < math.inf:
            raise ValueError(f"wilson_z must be finite and > 0, got {self.wilson_z}")
        # NaN fails both comparisons, so it is refused too
        if not 0.0 <= self.superset_threshold <= 1.0:
            raise ValueError(
                f"superset_threshold must be in [0, 1], got {self.superset_threshold}"
            )
        # NaN would make every model NEEDS_RETRAIN; a floor above 1 is allowed
        # and forces a retrain
        if math.isnan(self.retrain_f1_floor):
            raise ValueError(f"retrain_f1_floor must be a number, got {self.retrain_f1_floor}")
        if not 0.0 < self.train_split < 1.0:
            raise ValueError("train_split must be in (0, 1)")
        if not 0.0 <= self.sample_fraction <= 1.0:
            raise ValueError("sample_fraction must be in [0, 1]")
        if self.sample_repetitions < 1:
            raise ValueError("sample_repetitions must be >= 1")
        if self.min_events < 2:
            raise ValueError("min_events must be >= 2")
        if not self.injections:
            raise ValueError("at least one injection spec is required")
        # each kind's sweep is kept once, under its kind
        kinds = [spec.kind for spec in self.injections]
        for i, kind in enumerate(kinds):
            if kind in kinds[:i]:
                raise ValueError(f"injections[{i}] repeats kind {kind.value}")

    @classmethod
    def from_dict(cls, data: Mapping) -> "PipelineConfig":
        """A config from its JSON object form.

        Raises:
            ValueError: a key names no setting, a value has the wrong JSON
                type, or a setting is out of range.
        """
        if not isinstance(data, Mapping):
            raise ValueError(f"config must be an object, got {type(data).__name__}")
        _check_config(cls, data)
        kwargs = dict(data)
        if "train" in kwargs:
            _check_config(TrainConfig, kwargs["train"], prefix="train.")
            for name, weight in kwargs["train"].get("feature_weights", {}).items():
                if isinstance(weight, bool) or not isinstance(weight, (int, float)):
                    raise ValueError(
                        f"config key train.feature_weights.{name} must be a number, "
                        f"got {type(weight).__name__}"
                    )
            kwargs["train"] = TrainConfig(**kwargs["train"])
        if "injections" in kwargs:
            for i, spec in enumerate(kwargs["injections"]):
                if not isinstance(spec, Mapping):
                    raise ValueError(f"injections[{i}] must be an object")
                _check_config(InjectionSpec, spec, prefix=f"injections[{i}].")
            kwargs["injections"] = [InjectionSpec(**spec) for spec in kwargs["injections"]]
        return cls(**kwargs)

    def to_dict(self) -> dict:
        # Enum fields stay members; they are str Enums, so JSON gets their values.
        return dataclasses.asdict(self)

    def config_hash(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()


def stratified_sample(
    count: int, fraction: float, repetitions: int, seed: int
) -> np.ndarray:
    """Bootstrap a training set: positions into one actor's ``count`` training rows.

    Each repetition keeps each position independently with probability
    ``fraction``, in ascending order; the repetitions are concatenated, so a
    position can appear several times. Expected output size is
    ``fraction * repetitions * count``.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    rng = np.random.default_rng(seed)
    return np.concatenate(
        [np.flatnonzero(rng.random(count) < fraction) for _ in range(repetitions)]
    )


def _actor_seed(base_seed: int, actor_id: str, stream: str) -> int:
    digest = hashlib.sha256(f"{base_seed}:{actor_id}:{stream}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _group_by_actor(events: Sequence[LogEvent]) -> dict[str, list[LogEvent]]:
    groups: dict[str, list[LogEvent]] = {}
    for event in events:
        groups.setdefault(event.actor_id, []).append(event)
    return groups


def _dataset_hash(events: Sequence[LogEvent]) -> str:
    digest = hashlib.sha256()
    for event in events:
        digest.update(event.to_json_line().encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


# The metrics members a train summary repeats, per actor and per injection kind.
_SWEEP_KEYS = ("best_f1", "best_n", "confusion")
_SIZE_KEYS = ("train_size", "sample_size", "val_size")


def primary_sweep(metrics: Mapping) -> dict:
    """The primary injection kind's sweep result in a trained entry's metrics.

    The metrics hold each kind's result once, under ``per_kind``, and name
    the primary kind, the one that set ``chosen_n`` and the status, in
    ``primary_kind``.
    """
    return metrics["per_kind"][metrics["primary_kind"]]


@dataclass
class TrainWorkflowResult:
    """Each trained actor's entry, and each skipped actor's reason."""

    entries: dict[str, RegistryEntry]
    skipped: dict[str, str]
    config: PipelineConfig

    def to_summary(self) -> dict:
        """Deterministic summary of the run (no wall-clock fields)."""
        actors = {}
        for actor_id, entry in self.entries.items():
            metrics = entry.metrics
            primary = primary_sweep(metrics)
            actors[actor_id] = {
                **{key: primary[key] for key in _SWEEP_KEYS},
                **{key: metrics[key] for key in _SIZE_KEYS},
                "status": entry.status.value,
                "train_mu": entry.model.train_mu,
                "train_sigma": entry.model.train_sigma,
                "per_kind": {
                    kind: {key: result[key] for key in _SWEEP_KEYS}
                    for kind, result in metrics["per_kind"].items()
                },
            }
        return {
            "config_hash": self.config.config_hash(),
            "actors": actors,
            "skipped": self.skipped,
        }

    def to_summary_json(self) -> str:
        return json.dumps(self.to_summary(), sort_keys=True, indent=2)


# From this many events up, an actor's events are encoded column by column
# (``encode_columns``), below it one ``encode_event`` call each. The column
# encoder has a fixed cost of a few dozen numpy calls and a smaller cost per
# event. Median per actor of a trained 60-actor registry (2 vCPUs, Python
# 3.11, numpy 2.4), loop against columns: 1 event 4.8 us and 79 us, 32
# events 94 us and 103 us, 48 events 141 us and 120 us, 100 events 286 us
# and 159 us. An hourly batch holds a handful of events per actor, a
# backfill hundreds.
COLUMN_ENCODE_MIN_EVENTS = 32


def _encode_actor_events(
    events: Sequence[LogEvent], encoder: EncoderState
) -> np.ndarray:
    """One actor's events as an ``(N, 8)`` int64 index matrix; refuses a mix of actors.

    Either encoder gives the same matrix; the batch size picks the faster
    one (see ``COLUMN_ENCODE_MIN_EVENTS``).
    """
    actors = {event.actor_id for event in events}
    if len(actors) > 1:
        raise ValueError(f"dataset mixes actors: {sorted(actors)}")
    if len(events) >= COLUMN_ENCODE_MIN_EVENTS:
        return encode_columns(events, encoder)
    rows = (encode_event(event, encoder) for event in events)
    width = len(FEATURE_ORDER)
    flat = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=len(events) * width)
    return flat.reshape(len(events), width)


@dataclass
class _PreparedActor:
    """One actor, split, encoded and validated, waiting for its model."""

    actor_id: str
    encoder: EncoderState
    job: TrainJob
    train_size: int
    val_size: int
    dataset_hash: str
    validation: list[tuple[str, np.ndarray, np.ndarray]]  # (kind, rows, injected)


def _prepare_actor(
    actor_id: str,
    actor_events: Sequence[LogEvent],
    config: PipelineConfig,
    name_max: int = DEFAULT_NAME_MAX,
) -> tuple[_PreparedActor | None, str | None]:
    """Everything before training: split, vocabularies, sample and injected validation.

    Returns (prepared actor, None), or (None, skip reason) for an actor that
    cannot be trained or validated, or whose id is not a file name of at
    most ``name_max`` bytes.
    """
    try:
        check_actor_id(actor_id, name_max)
    except UnsafeActorIdError as exc:
        return None, str(exc)
    count = len(actor_events)
    if count < config.min_events:
        return None, f"only {count} events, need {config.min_events}"

    events = sorted(actor_events, key=lambda event: event.timestamp)
    split_at = int(count * config.train_split)
    train_part, val_part = events[:split_at], events[split_at:]
    if not train_part or not val_part:
        return None, "time split produced an empty partition"

    encoder = EncoderState(
        geohash_precision=config.geohash_precision,
        time_mode=config.time_mode,
        indices=build_event_indices(train_part, config.geohash_precision),
        active_hours=observed_hours(train_part),
        known_apps=build_superset(
            login_frequencies(train_part, config.wilson_z), config.superset_threshold
        ).apps_for(actor_id),
    )
    # an actor with few distinct values has too narrow an input for the code
    input_dim = sum(embedding_dim(size) for size in encoder.feature_sizes().values())
    if not config.train.code_dim < input_dim:
        return None, f"code_dim {config.train.code_dim} must be < input_dim {input_dim}"

    sample = stratified_sample(
        len(train_part),
        config.sample_fraction,
        config.sample_repetitions,
        _actor_seed(config.seed, actor_id, "sample"),
    )
    if not len(sample):
        return None, "bootstrap sample came back empty"

    validation = []
    for spec in config.injections:
        seed = _actor_seed(config.seed, actor_id, f"inject:{spec.kind.value}")
        # ValueError: too few eligible events, a displacement that leaves no
        # geohash cell, or DegenerateValidationError
        try:
            mutated, labels = inject(val_part, spec, seed)
            injected = np.array([label is Label.INJECTED for label in labels], dtype=bool)
            check_injected(injected, len(mutated))
        except ValueError as exc:
            return None, f"cannot validate: {exc}"
        validation.append(
            (spec.kind.value, _encode_actor_events(mutated, encoder), injected)
        )

    job = TrainJob(
        actor_id,
        _encode_actor_events(train_part, encoder)[sample],
        encoder.feature_sizes(),
        _actor_seed(config.seed, actor_id, "train"),
    )
    prepared = _PreparedActor(
        actor_id=actor_id,
        encoder=encoder,
        job=job,
        train_size=len(train_part),
        val_size=len(val_part),
        dataset_hash=_dataset_hash(train_part),
        validation=validation,
    )
    return prepared, None


def _finish_actor(
    actor: _PreparedActor,
    result: Autoencoder | TrainingDivergedError,
    config: PipelineConfig,
) -> tuple[RegistryEntry | None, str | None]:
    """Everything after training: threshold sweep and registry entry.

    Returns (entry, None), or (None, skip reason) when training diverged.
    """
    if isinstance(result, TrainingDivergedError):
        logger.warning("training diverged for %s: %s", actor.actor_id, result)
        return None, f"training diverged: {result}"
    model = result

    stats = LossStats(mu=model.train_mu, sigma=model.train_sigma, count=len(actor.job.rows))
    per_kind: dict[str, SweepResult] = {
        kind: sweep_threshold(model.losses(rows), injected, stats)
        for kind, rows, injected in actor.validation
    }

    primary_kind = config.injections[0].kind.value
    primary = per_kind[primary_kind]
    model.chosen_n = primary.best_n
    status = (
        EntryStatus.ACTIVE
        if primary.best_f1 >= config.retrain_f1_floor
        else EntryStatus.NEEDS_RETRAIN
    )
    metrics = {
        "primary_kind": primary_kind,
        "per_kind": {kind: result.to_dict() for kind, result in per_kind.items()},
        "train_size": actor.train_size,
        "sample_size": len(actor.job.rows),
        "val_size": actor.val_size,
    }
    metadata = {
        "dataset_hash": actor.dataset_hash,
        "config_hash": config.config_hash(),
    }
    entry = RegistryEntry(
        actor_id=actor.actor_id,
        model=model,
        encoder=actor.encoder,
        status=status,
        metrics=metrics,
        metadata=metadata,
    )
    return entry, None


def _train_single_actor(
    actor_id: str,
    actor_events: Sequence[LogEvent],
    config: PipelineConfig,
) -> tuple[RegistryEntry | None, str | None]:
    """Run the whole per-actor pipeline; returns (entry, skip_reason)."""
    actor, reason = _prepare_actor(actor_id, actor_events, config)
    if actor is None:
        return None, reason
    (result,) = train([actor.job], config.train)
    return _finish_actor(actor, result, config)


def run_train_workflow(
    events: Sequence[LogEvent],
    config: PipelineConfig,
    registry: ModelRegistry | None = None,
) -> TrainWorkflowResult:
    """Train and persist per-actor models over a raw event stream.

    Three phases: prepare every actor (split, vocabularies, sample,
    injected validation), fit all prepared actors in one ``train`` call, then
    sweep each actor's threshold and build its entry. An actor that is below
    the minimum event floor, cannot be validated or diverges is skipped with
    a warning and a reason in the summary. When ``registry`` is given every
    trained entry is saved to it.

    Raises:
        WorkflowError: the filtered stream contains no actors at all.
    """
    filtered = filter_entry_events(events, config.filter_mode)
    groups = _group_by_actor(filtered)
    if not groups:
        raise WorkflowError("no events left after filtering")

    reasons: dict[str, str] = {}
    prepared: list[_PreparedActor] = []
    name_max = DEFAULT_NAME_MAX if registry is None else registry.name_max
    for actor_id in sorted(groups):
        actor, reason = _prepare_actor(actor_id, groups[actor_id], config, name_max)
        if actor is None:
            reasons[actor_id] = reason
        else:
            prepared.append(actor)

    entries: dict[str, RegistryEntry] = {}
    results = train([actor.job for actor in prepared], config.train)
    for actor, result in zip(prepared, results):
        entry, reason = _finish_actor(actor, result, config)
        if entry is None:
            reasons[actor.actor_id] = reason
            continue
        if registry is not None:
            registry.save(entry)
        entries[actor.actor_id] = entry

    skipped = {actor_id: reasons[actor_id] for actor_id in sorted(reasons)}
    for actor_id, reason in skipped.items():
        logger.warning("skipping actor %s: %s", actor_id, reason)
    if not entries:
        logger.warning("train workflow produced no models")
    return TrainWorkflowResult(entries=entries, skipped=skipped, config=config)


@dataclass
class ScoreWorkflowResult:
    reports: dict[str, DetectionReport]
    unscorable: list[str]
    retrained: list[str]

    def to_summary(self) -> dict:
        return {
            "actors": {
                actor_id: {
                    "event_count": len(report.losses),
                    "anomaly_count": report.anomaly_count,
                    "anomaly_rate": report.anomaly_rate,
                    "threshold_n": report.threshold_n,
                }
                for actor_id, report in sorted(self.reports.items())
            },
            "unscorable": sorted(self.unscorable),
            "retrained": sorted(self.retrained),
        }

    def to_summary_json(self) -> str:
        return json.dumps(self.to_summary(), sort_keys=True, indent=2)


def run_score_workflow(
    events: Sequence[LogEvent],
    config: PipelineConfig,
    registry: ModelRegistry,
) -> ScoreWorkflowResult:
    """Score a live stream against stored per-actor models.

    Actors without a stored model, whose newest model fails its integrity
    check (corrupt, or written in another format version), or whose id
    cannot name a registry directory, are reported as unscorable. A stored
    model flagged NEEDS_RETRAIN is retrained on the actor's new events first,
    provided enough of them arrived; otherwise the stale model still scores.

    A retrain fits on the time-sorted first ``train_split`` share of these
    live events, and the new model then scores all of them, the fitted ones
    included. This is intended: a stale model no longer describes the actor.
    The cost is that an anomaly inside the fitted share is part of the new
    baseline and less likely to be flagged.

    A model whose stored ``config_hash`` differs from ``config``'s was
    trained under another configuration; it still scores, with a warning
    that names the actor.

    A batch with no events left after filtering gives an empty result.
    """
    config_hash = config.config_hash()
    groups = _group_by_actor(filter_entry_events(events, config.filter_mode))
    reports: dict[str, DetectionReport] = {}
    unscorable: list[str] = []
    retrained: list[str] = []
    for actor_id in sorted(groups):
        actor_events = groups[actor_id]
        entry = load_for_scoring(registry, actor_id)
        if not isinstance(entry, RegistryEntry):
            warn_unscorable(actor_id, entry)
            unscorable.append(actor_id)
            continue

        if needs_retrain(entry, len(actor_events), config):
            fresh, reason = _train_single_actor(actor_id, actor_events, config)
            if fresh is not None:
                registry.save(fresh)
                entry = fresh
                retrained.append(actor_id)
            else:
                logger.warning(
                    "retrain of %s failed (%s); scoring with stored model",
                    actor_id,
                    reason,
                )

        rows = _encode_actor_events(actor_events, entry.encoder)
        reports[actor_id] = score_entry(entry, rows, config_hash)
    return ScoreWorkflowResult(
        reports=reports, unscorable=unscorable, retrained=retrained
    )


# What makes an actor unscorable: no stored model, a newest document that
# fails its check, or an id that cannot name a registry directory.
Unscorable = RegistryNotFoundError | RegistryIntegrityError | UnsafeActorIdError


def load_for_scoring(registry: ModelRegistry, actor_id: str) -> RegistryEntry | Unscorable:
    """The actor's newest entry, or the error that makes the actor unscorable."""
    try:
        return registry.load(actor_id)
    except (RegistryNotFoundError, RegistryIntegrityError, UnsafeActorIdError) as exc:
        return exc


def warn_unscorable(actor_id: str, error: Unscorable) -> None:
    """Log why an actor is unscorable, if its registry holds a refused document."""
    if isinstance(error, RegistryIntegrityError):
        logger.warning("cannot score %s: %s", actor_id, error)


def needs_retrain(entry: RegistryEntry, count: int, config: PipelineConfig) -> bool:
    """Whether a score call with ``count`` of the actor's logins retrains it first."""
    return entry.status is EntryStatus.NEEDS_RETRAIN and count >= config.min_events


def score_entry(entry: RegistryEntry, rows: np.ndarray, config_hash: str) -> DetectionReport:
    """Score one actor's encoded logins with its entry, in one ``score_events``
    call; warn first if the entry was trained under another config."""
    stored_hash = entry.metadata.get("config_hash")
    if stored_hash is not None and stored_hash != config_hash:
        logger.warning(
            "config drift for %s: its model was trained with config %s, "
            "this call uses %s; scoring with it anyway",
            entry.actor_id,
            stored_hash,
            config_hash,
        )
    return score_events(entry.model, rows)
