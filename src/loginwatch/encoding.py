"""Categorical encoding of login events for the autoencoder.

String-valued features are mapped through per-feature lookup tables whose
indices start at 1; index 0 is reserved for values never seen when the table
was built. Time features pass through as their own level numbers (hour 1..24,
weekday 1..7 with Sunday = 1), and the unknown-app indicator passes through
as 0/1. Each feature later owns an embedding table of (levels + 1) rows in
the model, so index 0 always resolves to a trainable out-of-vocabulary row.

An encoded event is a row of 8 ints in ``FEATURE_ORDER``; a stream is an
``(N, 8)`` int64 matrix of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping

from loginwatch.events import LogEvent, hour_and_weekday
from loginwatch.geo import geohash_encode

# Embedding width never exceeds this, however large the vocabulary.
MAX_EMBEDDING_DIM = 50

# Order in which the model consumes features; fixed so weight layouts are stable.
FEATURE_ORDER = (
    "geohash",
    "app_id",
    "known_app",
    "outcome",
    "event_hour",
    "weekday",
    "client_os",
    "client_device",
)

DEFAULT_GEOHASH_PRECISION = 3


class TimeMode(str, Enum):
    """Granularity of the two time features.

    RAW keeps hour 1..24 and weekday 1..7 as distinct levels. COARSE folds
    them to binary: weekday-vs-weekend (1 = weekday) and whether the hour
    falls inside the actor's observed active hours (1 = in distribution).
    """

    RAW = "RAW"
    COARSE = "COARSE"


@dataclass(frozen=True)
class StringIndex:
    """Deterministic value-to-index table for one feature.

    Distinct values sort by their UTF-8 byte order and take indices 1..m.
    Unseen values map to 0.
    """

    feature_name: str
    values: tuple[str, ...]
    _lookup: dict = field(repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        self._lookup.update({value: i + 1 for i, value in enumerate(self.values)})

    @property
    def size(self) -> int:
        """Number of known levels (excludes the OOV index 0)."""
        return len(self.values)

    def index_of(self, value: str) -> int:
        return self._lookup.get(value, 0)


def build_index(values: Iterable[str], feature_name: str) -> StringIndex:
    """Build a StringIndex over the distinct values of a training column."""
    distinct = sorted(set(values), key=lambda v: v.encode("utf-8"))
    return StringIndex(feature_name=feature_name, values=tuple(distinct))


def embedding_dim(vocab_size: int) -> int:
    """Embedding width for a vocabulary of ``vocab_size`` levels.

    floor(m / 2) + 1, capped at 50. Strictly below m for every m >= 3.
    """
    if vocab_size < 1:
        raise ValueError(f"vocab_size must be >= 1, got {vocab_size}")
    return min(vocab_size // 2 + 1, MAX_EMBEDDING_DIM)


def geohash_value(event: LogEvent, precision: int) -> str:
    """Geohash level for an event; empty string marks a missing location."""
    if not event.has_location:
        return ""
    return geohash_encode(event.latitude, event.longitude, precision)


def encode_event(
    event: LogEvent,
    known_app: int,
    indices: Mapping[str, StringIndex],
    *,
    precision: int = DEFAULT_GEOHASH_PRECISION,
    time_mode: TimeMode = TimeMode.RAW,
    active_hours: frozenset[int] | set[int] | None = None,
) -> tuple[int, ...]:
    """Map one event to its row of per-feature indices, in ``FEATURE_ORDER``.

    String features (geohash cell, app id, outcome, client os, client device)
    go through ``indices``; values unseen at table-build time land on 0. Time
    features pass through per ``time_mode``; COARSE requires ``active_hours``.

    Args:
        event: the flattened event.
        known_app: unknown-app indicator for (actor, app), 0 or 1.
        indices: StringIndex per string feature name.
        precision: geohash characters for the location feature.
        time_mode: RAW or COARSE time granularity.
        active_hours: the actor's observed hour set; required for COARSE.
    """
    if known_app not in (0, 1):
        raise ValueError(f"known_app must be 0 or 1, got {known_app}")
    hour_value, weekday_value = hour_and_weekday(event.timestamp)
    if time_mode is TimeMode.COARSE:
        if active_hours is None:
            raise ValueError("COARSE time mode requires active_hours")
        hour_value = int(hour_value in active_hours)
        weekday_value = 0 if weekday_value in (1, 7) else 1

    return (
        indices["geohash"].index_of(geohash_value(event, precision)),
        indices["app_id"].index_of(event.app_id),
        known_app,
        indices["outcome"].index_of(event.outcome.value),
        hour_value,
        weekday_value,
        indices["client_os"].index_of(event.client_os),
        indices["client_device"].index_of(event.client_device),
    )


def feature_sizes(
    indices: Mapping[str, StringIndex], time_mode: TimeMode = TimeMode.RAW
) -> dict[str, int]:
    """Largest valid index per feature, in model feature order.

    String features report their table size; passthrough features report the
    top of their fixed ranges (hour 24, weekday 7, indicator 1), or 1 for the
    binary COARSE forms.
    """
    coarse = time_mode is TimeMode.COARSE
    return {
        "geohash": indices["geohash"].size,
        "app_id": indices["app_id"].size,
        "known_app": 1,
        "outcome": indices["outcome"].size,
        "event_hour": 1 if coarse else 24,
        "weekday": 1 if coarse else 7,
        "client_os": indices["client_os"].size,
        "client_device": indices["client_device"].size,
    }


def build_event_indices(
    events: Iterable[LogEvent], precision: int = DEFAULT_GEOHASH_PRECISION
) -> dict[str, StringIndex]:
    """Build every string-feature index table from a training stream."""
    events = list(events)
    columns: dict[str, list[str]] = {
        "geohash": [geohash_value(e, precision) for e in events],
        "app_id": [e.app_id for e in events],
        "outcome": [e.outcome.value for e in events],
        "client_os": [e.client_os for e in events],
        "client_device": [e.client_device for e in events],
    }
    return {name: build_index(values, name) for name, values in columns.items()}


def observed_hours(events: Iterable[LogEvent]) -> frozenset[int]:
    """Set of 1..24 hour levels appearing in a stream."""
    return frozenset(hour_and_weekday(e.timestamp)[0] for e in events)
