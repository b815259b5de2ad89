"""Controlled anomaly injection for labelled validation sets.

A fixed fraction of a stream is selected (seeded, uniform) and mutated along
one dimension: location (displaced far enough to change the geohash cell),
event hour (moved outside the actor's observed hours), or weekday (moved to
the opposite day type). Everything else about a mutated event, and every
non-selected event, is left byte-for-byte intact. Labels come back aligned
with the returned event list.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from datetime import datetime, timedelta
from enum import Enum
from typing import Sequence

import numpy as np

from loginwatch.events import LogEvent, hour_and_weekday
from loginwatch.geo import displace, geohash_encode

DEFAULT_FRACTION = 0.1
DEFAULT_DISTANCE_MILES = 1000.0
_GEOHASH_GUARD_PRECISION = 3
_MAX_BEARING_TRIES = 64


class Label(str, Enum):
    """Ground-truth marker of a validation event: injected or left as it was."""

    NORMAL = "NORMAL"
    INJECTED = "INJECTED"


class InjectionKind(str, Enum):
    LOCATION = "LOCATION"
    EVENT_HOUR = "EVENT_HOUR"
    WEEKDAY = "WEEKDAY"


@dataclass(frozen=True)
class InjectionSpec:
    """What to inject: the dimension, how much of the stream, and how far."""

    kind: InjectionKind = InjectionKind.LOCATION
    fraction: float = DEFAULT_FRACTION
    distance_miles: float = DEFAULT_DISTANCE_MILES

    def __post_init__(self):
        object.__setattr__(self, "kind", InjectionKind(self.kind))
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {self.fraction}")
        # NaN fails the comparison, so it is refused too
        if not 0 < self.distance_miles < math.inf:
            raise ValueError(
                f"distance_miles must be finite and > 0, got {self.distance_miles}"
            )


def _displace_event(
    event: LogEvent, distance_miles: float, rng: np.random.Generator
) -> LogEvent:
    for _ in range(_MAX_BEARING_TRIES):
        bearing = float(rng.uniform(0.0, 360.0))
        lat, lon = displace(event.latitude, event.longitude, distance_miles, bearing)
        moved = geohash_encode(lat, lon, _GEOHASH_GUARD_PRECISION)
        original = geohash_encode(
            event.latitude, event.longitude, _GEOHASH_GUARD_PRECISION
        )
        if moved != original:
            return dataclasses.replace(event, latitude=lat, longitude=lon)
    # a distance far below the cell's size, such as 1e-9 miles
    raise ValueError(
        f"could not leave geohash cell after {_MAX_BEARING_TRIES} bearings"
    )


def _least_frequent_hour(events: Sequence[LogEvent]) -> int:
    counts = {hour: 0 for hour in range(1, 25)}
    for event in events:
        counts[hour_and_weekday(event.timestamp)[0]] += 1
    return min(counts, key=lambda h: (counts[h], h))


def _is_weekend(timestamp: datetime) -> bool:
    return hour_and_weekday(timestamp)[1] in (1, 7)  # Sunday = 1, Saturday = 7


def _shift_day_type(event: LogEvent) -> LogEvent:
    """Move the timestamp forward to the nearest opposite day type."""
    start_weekend = _is_weekend(event.timestamp)
    moved = event.timestamp
    for _ in range(7):
        moved = moved + timedelta(days=1)
        if _is_weekend(moved) != start_weekend:
            return dataclasses.replace(event, timestamp=moved)
    raise RuntimeError("no opposite day type within a week")  # unreachable


def inject(
    events: Sequence[LogEvent], spec: InjectionSpec, seed: int
) -> tuple[list[LogEvent], list[Label]]:
    """Mutate a uniform sample of events along one dimension, drawn from ``seed``.

    Exactly ``round(spec.fraction * len(events))`` events are selected. For
    LOCATION, only events carrying coordinates are eligible; the mutation
    displaces them ``spec.distance_miles`` along a random bearing, re-drawing
    the bearing if the precision-3 geohash cell somehow failed to change.
    EVENT_HOUR rewrites the hour to one never observed in the input stream
    (falling back to the least frequent hour when all 24 appear). WEEKDAY
    shifts the timestamp forward to the nearest opposite day type, keeping
    the time of day.

    Returns:
        (mutated event list, labels) with labels aligned by position.

    Raises:
        ValueError: not enough eligible events for the requested count, or
            a LOCATION displacement left its geohash cell on no bearing tried.
    """
    events = list(events)
    count = round(spec.fraction * len(events))
    labels = [Label.NORMAL] * len(events)
    if count == 0:
        return events, labels

    if spec.kind is InjectionKind.LOCATION:
        eligible = [i for i, e in enumerate(events) if e.has_location]
    else:
        eligible = list(range(len(events)))
    if count > len(eligible):
        raise ValueError(
            f"{spec.kind.value}: need {count} eligible events, have {len(eligible)}"
        )

    rng = np.random.default_rng(seed)
    chosen = sorted(
        int(eligible[k]) for k in rng.choice(len(eligible), size=count, replace=False)
    )

    observed_hours = frozenset(hour_and_weekday(e.timestamp)[0] for e in events)
    rare_hour = None
    for position in chosen:
        event = events[position]
        if spec.kind is InjectionKind.LOCATION:
            events[position] = _displace_event(event, spec.distance_miles, rng)
        elif spec.kind is InjectionKind.EVENT_HOUR:
            complement = sorted(set(range(1, 25)) - observed_hours)
            if complement:
                new_hour = complement[int(rng.integers(0, len(complement)))]
            else:
                if rare_hour is None:
                    rare_hour = _least_frequent_hour(events)
                new_hour = rare_hour
            moved = event.timestamp.replace(hour=new_hour - 1)
            events[position] = dataclasses.replace(event, timestamp=moved)
        else:
            events[position] = _shift_day_type(event)
        labels[position] = Label.INJECTED
    return events, labels
