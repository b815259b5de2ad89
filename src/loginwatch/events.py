"""Ingestion of SSO system-log events.

Raw input is JSON Lines in the Okta System Log shape (``actor.id``,
``eventType``, ``published``, ``outcome.result``, ``client.*``, ``target``).
Parsing flattens each record into a :class:`LogEvent`; downstream stages only
ever see the flattened form.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator

logger = logging.getLogger(__name__)

# Event types that represent an interactive entry into an application.
ENTRY_EVENT_TYPES = frozenset({"policy.evaluate_sign_on", "user.authentication.sso"})


class Outcome(str, Enum):
    """Result of a login attempt. Unrecognized results collapse to OTHER."""

    SUCCESS = "SUCCESS"
    FAILURE = "FAILURE"
    OTHER = "OTHER"


class FilterMode(str, Enum):
    """Which subset of the raw stream an analysis keeps."""

    SIGN_ON = "SIGN_ON"
    CLIENT_INFO = "CLIENT_INFO"


class ParseError(ValueError):
    """A line of raw input could not be turned into a LogEvent."""

    def __init__(self, message: str, line_number: int | None = None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


class MalformedLineError(ParseError):
    """The line is not valid JSON."""


class RecordRejectedError(ParseError):
    """The record parses as JSON but lacks a required identity field."""


@dataclass(frozen=True)
class LogEvent:
    """One flattened login event.

    ``latitude``/``longitude`` are either both set or both ``None``.
    ``timestamp`` is a timezone-aware UTC instant at seconds precision.
    """

    actor_id: str
    timestamp: datetime
    event_type: str
    outcome: Outcome
    latitude: float | None = None
    longitude: float | None = None
    app_id: str = ""
    client_os: str = ""
    client_device: str = ""
    has_client_object: bool = False

    def __post_init__(self) -> None:
        if (self.latitude is None) != (self.longitude is None):
            raise ValueError("latitude and longitude must be set together")
        if self.latitude is not None:
            if not -90.0 <= self.latitude <= 90.0:
                raise ValueError(f"latitude out of range: {self.latitude}")
            if not -180.0 <= self.longitude <= 180.0:
                raise ValueError(f"longitude out of range: {self.longitude}")

    @property
    def has_location(self) -> bool:
        return self.latitude is not None

    def to_flat_dict(self) -> dict:
        """Flattened snake_case representation used for JSONL output."""
        return {
            "actor_id": self.actor_id,
            "timestamp": format_timestamp(self.timestamp),
            "event_type": self.event_type,
            "outcome": self.outcome.value,
            "latitude": self.latitude,
            "longitude": self.longitude,
            "app_id": self.app_id,
            "client_os": self.client_os,
            "client_device": self.client_device,
            "has_client_object": self.has_client_object,
        }

    def to_json_line(self) -> str:
        return json.dumps(self.to_flat_dict(), sort_keys=True)

    @classmethod
    def from_flat_dict(cls, record: dict) -> "LogEvent":
        return cls(
            actor_id=record["actor_id"],
            timestamp=parse_timestamp(record["timestamp"]),
            event_type=record["event_type"],
            outcome=Outcome(record["outcome"]),
            latitude=record.get("latitude"),
            longitude=record.get("longitude"),
            app_id=record.get("app_id", ""),
            client_os=record.get("client_os", ""),
            client_device=record.get("client_device", ""),
            has_client_object=bool(record.get("has_client_object", False)),
        )


@dataclass(frozen=True)
class TimeFeatures:
    """Calendar features of a login instant.

    ``event_hour`` runs 1..24 (clock hour 0 maps to 1) and ``weekday`` runs
    1..7 with Sunday = 1, so both double as embedding indices downstream.
    ``coarse_hour_flag`` is only populated when an actor's active-hour set is
    supplied.
    """

    event_hour: int
    weekday: int
    is_weekend: bool
    coarse_hour_flag: bool | None = None


@dataclass
class IngestStats:
    """Counters from reading one JSONL stream."""

    lines: int = 0
    parsed: int = 0
    rejected: int = 0


def parse_timestamp(text: str) -> datetime:
    """Parse an ISO 8601 instant to an aware UTC datetime at seconds precision."""
    raw = text.strip()
    if raw.endswith("Z"):
        raw = raw[:-1] + "+00:00"
    try:
        ts = datetime.fromisoformat(raw)
    except ValueError as exc:
        raise RecordRejectedError(f"bad timestamp {text!r}: {exc}") from None
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc).replace(microsecond=0)


def format_timestamp(ts: datetime) -> str:
    return ts.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _dig(record: dict, *path: str):
    """Walk nested dicts, returning None on any missing hop."""
    node = record
    for key in path:
        if not isinstance(node, dict):
            return None
        node = node.get(key)
    return node


def _extract_location(record: dict) -> tuple[float | None, float | None]:
    geo = _dig(record, "client", "geographicalContext", "geolocation")
    if not isinstance(geo, dict):
        return None, None
    lat, lon = geo.get("lat"), geo.get("lon")
    if not isinstance(lat, (int, float)) or not isinstance(lon, (int, float)):
        return None, None
    # Out-of-range coordinates are unusable; keep the event, drop the location.
    if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
        return None, None
    return float(lat), float(lon)


def _extract_app_id(record: dict) -> str:
    targets = record.get("target")
    if isinstance(targets, list):
        for item in targets:
            if isinstance(item, dict) and item.get("type") == "AppInstance":
                app = item.get("id") or item.get("alternateId") or ""
                return str(app)
    return ""


def parse_event(line: str, line_number: int | None = None) -> LogEvent:
    """Parse one raw JSONL line in the Okta System Log shape.

    The entry point for a caller holding text: :func:`parse_record` of the
    decoded line. ``line_number`` (1-based, optional) annotates errors.

    Raises:
        MalformedLineError: the line is not a JSON object.
        RecordRejectedError: actor id, event type, or timestamp is missing.
    """
    return parse_record(_decode(line, line_number), line_number)


def _decode(line: str, line_number: int | None):
    """``json.loads`` of one line; invalid JSON is a :class:`MalformedLineError`."""
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise MalformedLineError(f"invalid JSON: {exc.msg}", line_number) from None


def parse_record(record, line_number: int | None = None) -> LogEvent:
    """Flatten one decoded JSON value in the Okta System Log shape.

    Raises:
        MalformedLineError: ``record`` is not an object.
        RecordRejectedError: actor id, event type, or timestamp is missing.
    """
    if not isinstance(record, dict):
        raise MalformedLineError("top-level value is not an object", line_number)

    actor_id = _dig(record, "actor", "id")
    if not actor_id or not isinstance(actor_id, str):
        raise RecordRejectedError("missing actor.id", line_number)
    event_type = record.get("eventType")
    if not event_type or not isinstance(event_type, str):
        raise RecordRejectedError("missing eventType", line_number)
    published = record.get("published")
    if not published or not isinstance(published, str):
        raise RecordRejectedError("missing published timestamp", line_number)
    try:
        timestamp = parse_timestamp(published)
    except RecordRejectedError as exc:
        raise RecordRejectedError(str(exc), line_number) from None

    result = _dig(record, "outcome", "result")
    if result == Outcome.SUCCESS.value:
        outcome = Outcome.SUCCESS
    elif result == Outcome.FAILURE.value:
        outcome = Outcome.FAILURE
    else:
        outcome = Outcome.OTHER

    latitude, longitude = _extract_location(record)
    client = record.get("client")
    has_client = isinstance(client, dict)
    client_os = _dig(record, "client", "userAgent", "os") or ""
    client_device = _dig(record, "client", "device") or ""

    return LogEvent(
        actor_id=actor_id,
        timestamp=timestamp,
        event_type=event_type,
        outcome=outcome,
        latitude=latitude,
        longitude=longitude,
        app_id=_extract_app_id(record),
        client_os=str(client_os),
        client_device=str(client_device),
        has_client_object=has_client,
    )


def iter_raw_lines(path: Path | str) -> Iterator[tuple[int, str]]:
    """Yield (1-based line number, line) for non-blank lines of a file."""
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            if line.strip():
                yield number, line


def load_events(path: Path | str) -> tuple[list[LogEvent], IngestStats]:
    """Read a JSONL file of events, counting rejected records.

    Lines may be in the raw Okta shape or the flattened snake_case shape;
    the two are distinguished per line by their identity keys, and each line
    is decoded once. Records missing required fields, and JSON values that
    are not objects, are counted in ``stats.rejected`` and skipped.
    Lines that are not valid JSON raise :class:`MalformedLineError` with the
    line offset.
    """
    events: list[LogEvent] = []
    stats = IngestStats()
    for number, line in iter_raw_lines(path):
        stats.lines += 1
        record = _decode(line, number)
        try:
            if isinstance(record, dict) and "actor_id" in record:
                events.append(LogEvent.from_flat_dict(record))
            else:
                events.append(parse_record(record, number))
        except (RecordRejectedError, KeyError, ValueError) as exc:
            logger.warning("rejected record at line %d: %s", number, exc)
            stats.rejected += 1
            continue
        stats.parsed += 1
    return events, stats


def write_events(events: Iterable[LogEvent], path: Path | str) -> int:
    """Write events as flattened JSONL. Returns the number written."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(event.to_json_line() + "\n")
            count += 1
    return count


def filter_entry_events(
    events: Iterable[LogEvent], mode: FilterMode = FilterMode.SIGN_ON
) -> list[LogEvent]:
    """Keep the subset of events an analysis runs on, preserving order.

    SIGN_ON keeps application-entry events (``policy.evaluate_sign_on`` and
    ``user.authentication.sso``); CLIENT_INFO keeps events that carried a
    client object.
    """
    if mode is FilterMode.SIGN_ON:
        return [e for e in events if e.event_type in ENTRY_EVENT_TYPES]
    if mode is FilterMode.CLIENT_INFO:
        return [e for e in events if e.has_client_object]
    raise ValueError(f"unknown filter mode: {mode!r}")


def derive_time_features(
    timestamp: datetime, active_hours: frozenset[int] | set[int] | None = None
) -> TimeFeatures:
    """Compute calendar features for a login instant (UTC).

    ``weekday`` is 1..7 with Sunday = 1; ``event_hour`` is 1..24 with clock
    hour 0 mapping to 1. When ``active_hours`` (a set of 1..24 hour values)
    is given, ``coarse_hour_flag`` says whether the hour falls inside it.
    """
    ts = timestamp.astimezone(timezone.utc)
    event_hour = ts.hour + 1
    weekday = (ts.weekday() + 1) % 7 + 1
    is_weekend = weekday in (1, 7)
    coarse = None if active_hours is None else (event_hour in active_hours)
    return TimeFeatures(
        event_hour=event_hour,
        weekday=weekday,
        is_weekend=is_weekend,
        coarse_hour_flag=coarse,
    )
