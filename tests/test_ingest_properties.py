"""Property tests for ingest: every line is parsed, rejected or refused, and nothing else.

Lines are generated JSON values, raw Okta records and flat records whose fields
are replaced by generated values or deleted, and text that may not be JSON.
"""

import dataclasses
import json
import tempfile
from datetime import timedelta, timezone
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from loginwatch.events import LogEvent, MalformedLineError, load_events, parse_record

from test_events import STRING_FIELDS, raw_record

DELETE = object()

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
# ISO instants at any fixed offset, the extreme years among them.
STAMPS = st.datetimes(
    timezones=st.integers(-1439, 1439).map(lambda m: timezone(timedelta(minutes=m)))
).map(lambda t: t.isoformat())
FIELD_VALUES = (
    JSON_VALUES
    | STAMPS
    | st.sampled_from(["AppInstance", "SUCCESS", "FAILURE", "app-1", "", DELETE])
)

RAW_PATHS = (
    ("actor",), ("actor", "id"), ("eventType",), ("published",), ("outcome",),
    ("outcome", "result"), ("client",), ("client", "userAgent"),
    ("client", "userAgent", "os"), ("client", "device"),
    ("client", "geographicalContext"), ("client", "geographicalContext", "geolocation"),
    ("client", "geographicalContext", "geolocation", "lat"),
    ("client", "geographicalContext", "geolocation", "lon"),
    ("target",), ("target", 0), ("target", 0, "id"), ("target", 0, "alternateId"),
    ("target", 0, "type"),
)
FLAT_RECORD = parse_record(raw_record()).to_flat_dict()
LAT = ("client", "geographicalContext", "geolocation", "lat")
LON = ("client", "geographicalContext", "geolocation", "lon")


def replaced(record: dict, changes: list[tuple[tuple, object]]) -> dict:
    """``record`` with each path set to its value, or deleted; a path whose
    parent an earlier change replaced is skipped."""
    record = json.loads(json.dumps(record))
    for path, value in changes:
        node = record
        for key in path[:-1]:
            if isinstance(node, dict):
                node = node.get(key)
            else:
                node = node[key] if fits(node, key) else None
        last = path[-1]
        if value is DELETE and isinstance(node, dict):
            node.pop(last, None)
        elif value is not DELETE and (isinstance(node, dict) or fits(node, last)):
            node[last] = value
    return record


def fits(node, key) -> bool:
    return isinstance(node, list) and isinstance(key, int) and key < len(node)


# Target lists whose AppInstance entries carry ids of every JSON type.
ID_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6),
    st.lists(JSON_VALUES, min_size=1, max_size=2),
    st.dictionaries(st.text(max_size=4), JSON_VALUES, min_size=1, max_size=2),
)
TARGETS = st.lists(
    st.fixed_dictionaries(
        {"type": st.just("AppInstance"), "id": ID_VALUES}, optional={"alternateId": ID_VALUES}
    )
    | st.just({"type": "Rule", "id": "rule-1"})
    | JSON_VALUES,
    max_size=3,
)
RAW_RECORDS = st.builds(
    lambda targets, changes: replaced(raw_record(target=targets), changes),
    TARGETS,
    st.lists(st.tuples(st.sampled_from(RAW_PATHS), FIELD_VALUES), max_size=3),
)
FLAT_RECORDS = st.lists(
    st.tuples(st.sampled_from(sorted(FLAT_RECORD)).map(lambda key: (key,)), FIELD_VALUES),
    max_size=3,
).map(lambda changes: replaced(FLAT_RECORD, changes))
TEXT = (
    st.text(st.characters(codec="utf-8"), min_size=1, max_size=20)
    .map(lambda t: t.replace("\n", " ").replace("\r", " "))
    .filter(str.strip)
)
LINES = st.one_of(st.one_of(RAW_RECORDS, FLAT_RECORDS, JSON_VALUES).map(json.dumps), TEXT)


def app_ids(record: dict) -> set[str]:
    """The string or integer ``id``/``alternateId`` of the first ``AppInstance`` target."""
    targets = record.get("target")
    for item in targets if isinstance(targets, list) else ():
        if isinstance(item, dict) and item.get("type") == "AppInstance":
            return {
                str(value)
                for value in (item.get("id"), item.get("alternateId"))
                if isinstance(value, str)
                or (isinstance(value, int) and not isinstance(value, bool))
            }
    return set()


def check_event(event, line: str) -> None:
    assert type(event) is LogEvent
    # replace runs LogEvent.__init__, the one constructor both parses use,
    # again on every slot's value: an unset slot or an invalid value fails here
    copy = dataclasses.replace(event)
    assert copy == event and hash(copy) == hash(event)
    for field in STRING_FIELDS:
        assert type(getattr(event, field)) is str, field
    if event.latitude is None:
        assert event.longitude is None
    else:
        assert type(event.latitude) is float and -90.0 <= event.latitude <= 90.0
        assert type(event.longitude) is float and -180.0 <= event.longitude <= 180.0
    record = json.loads(line)
    if "actor_id" in record:
        assert event.app_id == record.get("app_id", "")
    else:
        assert event.app_id == "" or event.app_id in app_ids(record)


@settings(max_examples=100)
@given(st.lists(LINES, min_size=1, max_size=4))
@example([json.dumps(raw_record(target=[{"type": "AppInstance", "id": True}]))])
@example([json.dumps(raw_record(published="0001-01-01T00:00:00+00:01"))])
# an integer location is kept as floats, one out of range is dropped
@example([json.dumps(replaced(raw_record(), [(LAT, 45), (LON, -120)]))])
@example([json.dumps(replaced(raw_record(), [(LAT, 90.5)]))])
def test_each_line_is_parsed_rejected_or_refused(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "events.jsonl"
        alone = []  # each line loaded on its own: its events, or None if refused
        for line in lines:
            path.write_text(line + "\n", encoding="utf-8")
            try:
                events, stats = load_events(path)
            except MalformedLineError as exc:
                assert exc.line_number == 1
                alone.append(None)
                continue
            assert (stats.lines, stats.parsed + stats.rejected) == (1, 1)
            assert len(events) == stats.parsed
            for event in events:
                check_event(event, line)
            alone.append(events)

        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        if None in alone:
            try:
                load_events(path)
            except MalformedLineError as exc:
                assert exc.line_number == alone.index(None) + 1
            else:
                raise AssertionError("a refused line was loaded in a file")
        else:
            events, stats = load_events(path)
            assert events == [event for part in alone for event in part]
            assert stats.lines == len(lines)
