"""Ingestion of SSO system-log events.

Raw input is JSON Lines in the Okta System Log shape (``actor.id``,
``eventType``, ``published``, ``outcome.result``, ``client.*``, ``target``).
Parsing flattens each record into a :class:`LogEvent`; downstream stages only
ever see the flattened form. :func:`load_range` is the one JSONL reader:
it reads a file or a pipe in chunks of bytes, ends lines at ``\r\n``,
``\r`` or ``\n``, and decodes and parses each line before it reads the
next, so errors come in line order. :func:`load_events` is its call over a
whole stream. A raw record is checked and flattened in one pass.
Every event, parsed, replaced or made by hand, is built by the validating
``LogEvent(...)``.

A :class:`LogEvent` has slots and no instance ``__dict__``. Its five
categorical strings (``actor_id``, ``event_type``, ``app_id``, ``client_os``,
``client_device``) repeat across a log, so :func:`load_range` keeps one
string object per distinct value for the length of the call and every event
it returns holds that object; nothing is cached across calls. A loaded login
then costs about 217 bytes: the event, its timestamp and its two
coordinates.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from enum import Enum
from json.scanner import make_scanner
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

logger = logging.getLogger(__name__)

# Event types that represent an interactive entry into an application.
ENTRY_EVENT_TYPES = frozenset({"policy.evaluate_sign_on", "user.authentication.sso"})


class Outcome(str, Enum):
    """Result of a login attempt. Unrecognized results collapse to OTHER."""

    SUCCESS = "SUCCESS"
    FAILURE = "FAILURE"
    OTHER = "OTHER"


# ``outcome.result`` values other than these are OTHER.
_OUTCOMES = {"SUCCESS": Outcome.SUCCESS, "FAILURE": Outcome.FAILURE}


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
    """The record parses as JSON but lacks a required field or has one of the wrong type."""


# JSON types of the flat form's values. A missing key is left to the
# required-key lookup and the defaults of ``from_flat_dict``.
_FLAT_TYPES = {
    "actor_id": (str, "a string"),
    "timestamp": (str, "a string"),
    "event_type": (str, "a string"),
    "outcome": (str, "a string"),
    "latitude": ((int, float, type(None)), "a number or null"),
    "longitude": ((int, float, type(None)), "a number or null"),
    "app_id": (str, "a string"),
    "client_os": (str, "a string"),
    "client_device": (str, "a string"),
    "has_client_object": (bool, "a boolean"),
}


# The scanner under ``json.loads`` (its C form where there is one): called
# as ``_SCAN(text, offset)``, it returns the value at ``offset`` and the
# offset after it.
_SCAN = make_scanner(json.JSONDecoder())
# What ``json.loads`` skips around a value: its ``WHITESPACE`` pattern.
_JSON_WHITESPACE = " \t\n\r"


class _Strings(dict):
    """One string object per distinct value: ``strings[s]`` is the first string
    seen equal to ``s``, so events built through one table share their strings."""

    def __missing__(self, key: str) -> str:
        self[key] = key
        return key


@dataclass(frozen=True, slots=True, init=False)
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

    def __init__(
        self, actor_id: str, timestamp: datetime, event_type: str, outcome: Outcome,
        latitude: float | None = None, longitude: float | None = None, app_id: str = "",
        client_os: str = "", client_device: str = "", has_client_object: bool = False,
    ) -> None:
        """The frozen dataclass ``__init__`` with its coordinate checks; a slot's
        member descriptor stores in half the time of ``object.__setattr__``."""
        if (latitude is None) != (longitude is None):
            raise ValueError("latitude and longitude must be set together")
        if latitude is not None:
            if not -90.0 <= latitude <= 90.0:
                raise ValueError(f"latitude out of range: {latitude}")
            if not -180.0 <= longitude <= 180.0:
                raise ValueError(f"longitude out of range: {longitude}")
        _set_actor_id(self, actor_id)
        _set_timestamp(self, timestamp)
        _set_event_type(self, event_type)
        _set_outcome(self, outcome)
        _set_latitude(self, latitude)
        _set_longitude(self, longitude)
        _set_app_id(self, app_id)
        _set_client_os(self, client_os)
        _set_client_device(self, client_device)
        _set_has_client_object(self, has_client_object)

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
        """Rebuild an event from its :meth:`to_flat_dict` form.

        Raises:
            KeyError: a required key is missing.
            RecordRejectedError: a value has the wrong JSON type.
            ValueError: the outcome is unknown, or the coordinates are not a valid pair.
        """
        return _flat_event(record, _Strings())


# ``_set_x(event, value)`` stores ``value`` in slot ``x`` through the slot's
# member descriptor, past the frozen ``__setattr__``. Only ``LogEvent.__init__`` calls them.
(
    _set_actor_id, _set_timestamp, _set_event_type, _set_outcome, _set_latitude,
    _set_longitude, _set_app_id, _set_client_os, _set_client_device, _set_has_client_object,
) = (LogEvent.__dict__[field.name].__set__ for field in fields(LogEvent))


def _flat_event(record: dict, strings: _Strings) -> LogEvent:
    """:meth:`LogEvent.from_flat_dict`, its strings taken from ``strings``."""
    for key, (kinds, expected) in _FLAT_TYPES.items():
        if key not in record:
            continue
        value = record[key]
        # JSON true/false decode to bool, an int subclass, which only
        # has_client_object takes
        if not isinstance(value, kinds) or (isinstance(value, bool) and kinds is not bool):
            raise RecordRejectedError(
                f"{key} must be {expected}, got {type(value).__name__}"
            )
    actor_id, event_type = record["actor_id"], record["event_type"]
    # empty names are missing ones, as on the raw path
    if not actor_id:
        raise RecordRejectedError("missing actor_id")
    if not event_type:
        raise RecordRejectedError("missing event_type")
    return LogEvent(
        actor_id=strings[actor_id],
        timestamp=parse_timestamp(record["timestamp"]),
        event_type=strings[event_type],
        outcome=Outcome(record["outcome"]),
        latitude=_flat_coordinate(record, "latitude"),
        longitude=_flat_coordinate(record, "longitude"),
        app_id=strings[record.get("app_id", "")],
        client_os=strings[record.get("client_os", "")],
        client_device=strings[record.get("client_device", "")],
        has_client_object=record.get("has_client_object", False),
    )


def _flat_coordinate(record: dict, key: str) -> float | None:
    """A flat coordinate as a float, so an integer one is written as the raw path writes it."""
    value = record.get(key)
    if value is None:
        return None
    try:
        return float(value)
    except OverflowError:  # an integer past the float range
        raise RecordRejectedError(f"{key} out of range") from None


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
    if ts.tzinfo is timezone.utc and not ts.microsecond:
        return ts  # already what the conversion below would make
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    try:
        return ts.astimezone(timezone.utc).replace(microsecond=0)
    except OverflowError as exc:  # an offset that moves the instant past year 1 or 9999
        raise RecordRejectedError(f"bad timestamp {text!r}: {exc}") from None


def format_timestamp(ts: datetime) -> str:
    return ts.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _app_key(value) -> str:
    """A target's ``id`` or ``alternateId`` as an app id: a string as it is, a
    JSON integer as its digits, any other value (``true``, an object, a list)
    as ``""``, which counts as absent."""
    if isinstance(value, str):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
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
    """``json.loads`` of one line; invalid JSON is a :class:`MalformedLineError`.

    A line that holds one JSON value from its first character, followed by
    nothing but JSON whitespace, is read by the scanner ``json.loads`` uses
    underneath, which gives the same value without the wrapper's checks.
    Every other line (leading whitespace, a BOM, extra data, invalid JSON)
    goes to ``json.loads`` itself, so it is accepted or refused with the
    same message as there.
    """
    try:
        record, end = _SCAN(line, 0)
    except (StopIteration, ValueError, RecursionError, TypeError):  # TypeError: bytes
        pass
    else:
        if end == len(line) or not line[end:].strip(_JSON_WHITESPACE):
            return record
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise MalformedLineError(f"invalid JSON: {exc.msg}", line_number) from None
    except (ValueError, RecursionError) as exc:
        # an integer longer than the int-to-str digit limit, or nesting deeper
        # than the recursion limit: valid JSON that this interpreter cannot hold
        raise MalformedLineError(f"undecodable JSON: {exc}", line_number) from None


def parse_record(record, line_number: int | None = None) -> LogEvent:
    """Flatten one decoded JSON value in the Okta System Log shape.

    Raises:
        MalformedLineError: ``record`` is not an object.
        RecordRejectedError: actor id, event type, or timestamp is missing.
    """
    return _okta_event(record, line_number, _Strings())


def _okta_event(record, line_number: int | None, strings: _Strings) -> LogEvent:
    """:func:`parse_record`, its strings taken from ``strings``."""
    if not isinstance(record, dict):
        raise MalformedLineError("top-level value is not an object", line_number)

    get = record.get
    actor = get("actor")
    actor_id = actor.get("id") if isinstance(actor, dict) else None
    if not actor_id or not isinstance(actor_id, str):
        raise RecordRejectedError("missing actor.id", line_number)
    event_type = get("eventType")
    if not event_type or not isinstance(event_type, str):
        raise RecordRejectedError("missing eventType", line_number)
    published = get("published")
    if not published or not isinstance(published, str):
        raise RecordRejectedError("missing published timestamp", line_number)
    try:
        timestamp = parse_timestamp(published)
    except RecordRejectedError as exc:
        raise RecordRejectedError(str(exc), line_number) from None

    result = get("outcome")
    result = result.get("result") if isinstance(result, dict) else None
    # only a string is looked up: a list or object result is OTHER, not a TypeError
    outcome = _OUTCOMES.get(result, Outcome.OTHER) if isinstance(result, str) else Outcome.OTHER

    client = get("client")
    has_client = isinstance(client, dict)
    latitude = longitude = None
    client_os = client_device = ""  # a number or object is no client name
    if has_client:
        agent = client.get("userAgent")
        if isinstance(agent, dict):
            client_os = agent.get("os")
            if not isinstance(client_os, str):
                client_os = ""
        client_device = client.get("device")
        if not isinstance(client_device, str):
            client_device = ""
        context = client.get("geographicalContext")
        geo = context.get("geolocation") if isinstance(context, dict) else None
        if isinstance(geo, dict):
            lat, lon = geo.get("lat"), geo.get("lon")
            # a JSON number (``true``/``false`` decode to ``bool``, an ``int``,
            # and are not) inside its range; any other location is unusable,
            # and the event is kept without it
            if (
                isinstance(lat, (int, float)) and not isinstance(lat, bool)
                and isinstance(lon, (int, float)) and not isinstance(lon, bool)
                and -90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0
            ):
                latitude, longitude = float(lat), float(lon)

    # the id of the first AppInstance target, else its alternateId, else ""
    app_id = ""
    targets = get("target")
    if isinstance(targets, list):
        for item in targets:
            if isinstance(item, dict) and item.get("type") == "AppInstance":
                app_id = _app_key(item.get("id")) or _app_key(item.get("alternateId"))
                break

    return LogEvent(
        strings[actor_id], timestamp, strings[event_type], outcome, latitude, longitude,
        strings[app_id], strings[client_os], strings[client_device], has_client,
    )


def load_events(path: Path | str) -> tuple[list[LogEvent], IngestStats]:
    """:func:`load_range` of the whole file or stream, without its line count."""
    events, stats, _ = load_range(path)
    return events, stats


def _event(record, strings: _Strings) -> LogEvent:
    """The event of one decoded line, in the flat shape or the raw one. An
    error it raises (``RecordRejectedError``, ``KeyError``, ``ValueError``)
    rejects the record and names no line: the caller logs the line."""
    if isinstance(record, dict) and "actor_id" in record:
        return _flat_event(record, strings)
    return _okta_event(record, None, strings)


def _log_rejected(offset: int, length: int, number: int, exc: Exception) -> None:
    logger.warning("rejected record at line %d: %s", number, exc)


# Bytes a ``load_range`` call reads at a time.
RANGE_CHUNK_BYTES = 1 << 16


def load_range(
    path: Path | str,
    start: int = 0,
    end: int | None = None,
    first_line: int = 1,
    rejected: Callable[[int, int, int, Exception], None] | None = None,
) -> tuple[list[LogEvent], IngestStats, int]:
    """Parse the JSONL lines in bytes ``[start, end)`` of a file, counting
    rejected records.

    ``end=None`` reads to the end of the stream. A ``start`` of 0 does not
    seek, so a pipe such as ``/dev/stdin`` reads as a file does; any other
    ``start`` must follow a ``"\\n"``. The bytes are read
    ``RANGE_CHUNK_BYTES`` at a time, never held whole. Lines end at
    ``"\\r\\n"``, ``"\\r"`` or ``"\\n"``, are numbered from ``first_line``,
    and are each parsed before the next is read, so errors and warnings
    come in line order.

    A line may be in the raw Okta shape or the flat snake_case one, told
    apart by its identity keys, and is decoded once. Blank lines are
    skipped and not counted. Records missing required fields, and JSON
    values that are not objects, are counted in ``stats.rejected`` and
    passed to ``rejected`` as (byte offset of the line, its byte length,
    line number, exception); the default logs the line number and the
    reason. So ``[offset, offset + length)`` and ``first_line=number``
    parse that one line again. Equal strings of the returned events are one
    object, shared within this call only.

    Returns:
        The events, the stats, and the number of lines read, blank ones
        included: ranges that meet at a line end number their lines from
        the previous range's ``first_line`` plus that count.

    Raises:
        MalformedLineError: a line is not valid JSON or not UTF-8, or is too
            deep or long for ``json.loads``; it names the line.
    """
    report = rejected or _log_rejected
    events: list[LogEvent] = []
    strings = _Strings()
    number, offset, parsed_lines, rejected_count = first_line - 1, start, 0, 0
    with open(path, "rb") as handle:
        if start:
            handle.seek(start)
        rest, left = b"", math.inf if end is None else end - start
        while rest or left > 0:
            data = handle.read(min(RANGE_CHUNK_BYTES, left)) if left > 0 else b""
            left -= len(data)
            # the last line may go on in the next chunk, even after a "\r"
            raws = (rest + data).splitlines(keepends=True)
            rest = raws.pop() if data and left > 0 else b""
            for raw in raws:
                number += 1
                try:
                    line = raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise MalformedLineError(f"invalid UTF-8: {exc.reason}", number) from None
                if line.strip():
                    record = _decode(line, number)
                    parsed_lines += 1
                    try:
                        events.append(_event(record, strings))
                    except (RecordRejectedError, KeyError, ValueError) as exc:
                        report(offset, len(raw), number, exc)
                        rejected_count += 1
                offset += len(raw)
            if not data:
                break
    stats = IngestStats(lines=parsed_lines, parsed=len(events), rejected=rejected_count)
    return events, stats, number - first_line + 1


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


def hour_and_weekday(timestamp: datetime) -> tuple[int, int]:
    """(hour level, weekday level) of a login instant in UTC.

    The hour level is 1..24 with clock hour 0 mapping to 1; the weekday
    level is 1..7 with Sunday = 1. A naive ``timestamp`` is read as local
    time, as ``datetime.astimezone`` reads it.
    """
    if timestamp.tzinfo is not timezone.utc:
        timestamp = timestamp.astimezone(timezone.utc)
    return timestamp.hour + 1, timestamp.isoweekday() % 7 + 1


def hours_and_weekdays(timestamps: Iterable[datetime]) -> tuple[np.ndarray, np.ndarray]:
    """:func:`hour_and_weekday` of each instant, as two int64 arrays."""
    utc = [t if t.tzinfo is timezone.utc else t.astimezone(timezone.utc) for t in timestamps]
    hours = np.fromiter(map(attrgetter("hour"), utc), np.int64, len(utc))
    weekdays = np.fromiter(map(datetime.isoweekday, utc), np.int64, len(utc))
    return hours + 1, weekdays % 7 + 1
