"""Categorical encoding of login events for the autoencoder.

String-valued features are mapped through per-feature vocabularies, plain
dicts whose indices start at 1; index 0 is reserved for values never seen
when the vocabulary was built. Time features pass through as their own level
numbers (hour 1..24, weekday 1..7 with Sunday = 1), and the unknown-app
indicator passes through as 0/1. Each feature later owns an embedding table
of (levels + 1) rows in the model, so index 0 always resolves to a trainable
out-of-vocabulary row.

``EncoderState`` holds everything that decides how a login becomes a row:
the vocabularies, the actor's known apps behind the known-app bit, the time
mode with the actor's active hours, and the geohash precision. It is learned
from one actor's training side, stored beside that actor's model
(``to_dict`` and ``from_dict``), and applied by
``encode_event(event, encoder)``. An encoded event is a row of 8 ints in
``FEATURE_ORDER``; a stream is an ``(N, 8)`` int64 matrix of them.

Two encoders give that matrix. ``encode_event`` builds one row, and is the
reference the tests hold the other to. ``encode_columns`` builds a whole
batch's matrix a column at a time: one numpy geohash over the batch with
each distinct cell looked up once, the time levels as arrays, and one dict
or set lookup per string value. Its fixed cost, a few dozen numpy calls, is
that of some 15 ``encode_event`` rows, and its cost per event about a third
of one. The two break even between 32 and 48 events, and
``pipeline._encode_actor_events`` takes the column encoder from
``pipeline.COLUMN_ENCODE_MIN_EVENTS`` (32) events up, where the measurement
is given.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from operator import attrgetter
from typing import Iterable, Sequence

import numpy as np

from loginwatch.events import (
    LogEvent,
    Outcome,
    hour_and_weekday,
    hours_and_weekdays,
)
from loginwatch.geo import (
    MAX_GEOHASH_PRECISION,
    geohash_codes,
    geohash_encode,
    geohash_text,
)

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


def build_index(values: Iterable[str]) -> dict[str, int]:
    """The vocabulary of a training column: each distinct value, in UTF-8
    byte order, mapped to 1..m."""
    distinct = sorted(set(values), key=lambda v: v.encode("utf-8"))
    return {value: i for i, value in enumerate(distinct, 1)}


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


def is_string_list(value) -> bool:
    """Whether a decoded JSON value is a list of strings."""
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def json_object(data: dict, key: str) -> dict:
    """``data[key]``, which must be a JSON object."""
    value = data[key]
    if not isinstance(value, dict):
        raise TypeError(f"{key} must be an object, got {type(value).__name__}")
    return value


@dataclass
class EncoderState:
    """Everything needed to encode live events exactly as during training.

    ``indices`` holds one vocabulary per string feature: a plain dict from
    each value to its index, 1..m in UTF-8 byte order (see ``build_index``).
    Its length is the feature's size and its keys, in order, are what a
    stored document keeps. ``known_apps`` is the actor's Wilson-filtered app
    set (``apps.build_superset``); a login to any other app gets known-app
    bit 1.
    """

    geohash_precision: int
    time_mode: TimeMode
    active_hours: frozenset[int]
    indices: dict[str, dict[str, int]]
    known_apps: frozenset[str]

    def feature_sizes(self) -> dict[str, int]:
        """Largest valid index per feature, in model feature order.

        String features report their vocabulary size; passthrough features
        report the top of their fixed ranges (hour 24, weekday 7, indicator
        1), or 1 for the binary COARSE forms.
        """
        coarse = self.time_mode is TimeMode.COARSE
        return {
            "geohash": len(self.indices["geohash"]),
            "app_id": len(self.indices["app_id"]),
            "known_app": 1,
            "outcome": len(self.indices["outcome"]),
            "event_hour": 1 if coarse else 24,
            "weekday": 1 if coarse else 7,
            "client_os": len(self.indices["client_os"]),
            "client_device": len(self.indices["client_device"]),
        }

    def to_dict(self) -> dict:
        return {
            "geohash_precision": self.geohash_precision,
            "time_mode": self.time_mode.value,
            "active_hours": sorted(self.active_hours),
            "indices": {name: list(index) for name, index in self.indices.items()},
            "known_apps": sorted(self.known_apps),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EncoderState":
        """Rebuild an encoder from ``to_dict`` output.

        Raises:
            KeyError, TypeError, ValueError: a member is missing or is not
                what ``to_dict`` writes: a precision that is not an int in
                1..``MAX_GEOHASH_PRECISION``, active hours that are not ints
                in 1..24, a vocabulary that is not a list of distinct strings
                (a repeat would give an index past the vocabulary's size), or
                known apps that are not a list of strings.
        """
        precision = data["geohash_precision"]
        if type(precision) is not int or not 1 <= precision <= MAX_GEOHASH_PRECISION:
            raise ValueError(
                f"geohash_precision must be an int in 1..{MAX_GEOHASH_PRECISION}, "
                f"got {precision!r:.40}"
            )
        hours = data["active_hours"]
        if not isinstance(hours, list) or not all(
            type(h) is int and 1 <= h <= 24 for h in hours
        ):
            raise ValueError(f"active_hours must be a list of ints in 1..24, got {hours!r:.40}")
        indices = {}
        for name, values in json_object(data, "indices").items():
            if not is_string_list(values) or len(set(values)) != len(values):
                raise ValueError(f"indices.{name} must be a list of distinct strings")
            indices[name] = {value: i for i, value in enumerate(values, 1)}
        known_apps = data["known_apps"]
        if not is_string_list(known_apps):
            raise ValueError(f"known_apps must be a list of strings, got {known_apps!r:.40}")
        return cls(
            geohash_precision=precision,
            time_mode=TimeMode(data["time_mode"]),
            active_hours=frozenset(hours),
            indices=indices,
            known_apps=frozenset(known_apps),
        )


def encode_event(event: LogEvent, encoder: EncoderState) -> tuple[int, ...]:
    """Map one event to its row of per-feature indices, in ``FEATURE_ORDER``.

    String features (geohash cell at the encoder's precision, app id,
    outcome, client os, client device) go through the encoder's
    vocabularies; values unseen when they were built land on 0. The
    known-app bit is 0 for an app in the encoder's known apps and 1 for any
    other. Time features pass through per the encoder's time mode; COARSE
    reads its active hours.
    """
    hour_value, weekday_value = hour_and_weekday(event.timestamp)
    if encoder.time_mode is TimeMode.COARSE:
        hour_value = int(hour_value in encoder.active_hours)
        weekday_value = 0 if weekday_value in (1, 7) else 1
    indices = encoder.indices
    return (
        indices["geohash"].get(geohash_value(event, encoder.geohash_precision), 0),
        indices["app_id"].get(event.app_id, 0),
        0 if event.app_id in encoder.known_apps else 1,
        indices["outcome"].get(event.outcome.value, 0),
        hour_value,
        weekday_value,
        indices["client_os"].get(event.client_os, 0),
        indices["client_device"].get(event.client_device, 0),
    )


def geohash_levels(
    events: Sequence[LogEvent], precision: int
) -> tuple[list[str], np.ndarray]:
    """Every event's :func:`geohash_value`, as its distinct levels and each
    event's position among them.

    The cells come from one :func:`~loginwatch.geo.geohash_codes` call over
    the located events, and each distinct cell is spelled once.
    """
    # a missing coordinate is None, which a float64 array holds as NaN; a
    # located event's coordinates are in range, so never NaN
    latitudes = np.array(list(map(attrgetter("latitude"), events)), dtype=np.float64)
    longitudes = np.array(list(map(attrgetter("longitude"), events)), dtype=np.float64)
    located = ~np.isnan(latitudes)
    codes = np.full(len(events), -1, dtype=np.int64)  # -1: no location, sorts first
    codes[located] = geohash_codes(latitudes[located], longitudes[located], precision)
    distinct, positions = np.unique(codes, return_inverse=True)
    levels = [
        geohash_text(code, precision) if code >= 0 else "" for code in distinct.tolist()
    ]
    return levels, positions


def encode_columns(events: Sequence[LogEvent], encoder: EncoderState) -> np.ndarray:
    """:func:`encode_event` of each event, as an ``(N, 8)`` int64 matrix
    built one column at a time (see the module docstring)."""
    count = len(events)
    if not count:
        return np.empty((0, len(FEATURE_ORDER)), dtype=np.int64)
    indices = encoder.indices

    def lookup(index: dict, field: str) -> np.ndarray:
        values = map(attrgetter(field), events)
        return np.fromiter(map(index.get, values, repeat(0)), np.int64, count)

    levels, positions = geohash_levels(events, encoder.geohash_precision)
    geohash = np.array([indices["geohash"].get(level, 0) for level in levels], np.int64)
    known = encoder.known_apps.__contains__
    outcomes = {member: indices["outcome"].get(member.value, 0) for member in Outcome}
    hours, weekdays = hours_and_weekdays(map(attrgetter("timestamp"), events))
    if encoder.time_mode is TimeMode.COARSE:
        hours = np.isin(hours, list(encoder.active_hours))
        weekdays = (weekdays != 1) & (weekdays != 7)
    columns = (
        geohash[positions],
        lookup(indices["app_id"], "app_id"),
        np.fromiter(map(known, map(attrgetter("app_id"), events)), bool, count) ^ True,
        lookup(outcomes, "outcome"),
        hours,
        weekdays,
        lookup(indices["client_os"], "client_os"),
        lookup(indices["client_device"], "client_device"),
    )
    return np.stack(columns, axis=1, dtype=np.int64)


def build_event_indices(
    events: Iterable[LogEvent], precision: int = DEFAULT_GEOHASH_PRECISION
) -> dict[str, dict[str, int]]:
    """Build every string-feature vocabulary from a training stream.

    The geohash levels come from :func:`geohash_levels`, so a training
    event is not geohashed one by one.
    """
    events = list(events)
    columns: dict[str, list[str]] = {
        "geohash": geohash_levels(events, precision)[0],
        "app_id": [e.app_id for e in events],
        "outcome": [e.outcome.value for e in events],
        "client_os": [e.client_os for e in events],
        "client_device": [e.client_device for e in events],
    }
    return {name: build_index(values) for name, values in columns.items()}


def observed_hours(events: Iterable[LogEvent]) -> frozenset[int]:
    """Set of 1..24 hour levels appearing in a stream."""
    return frozenset(hours_and_weekdays(map(attrgetter("timestamp"), events))[0].tolist())
