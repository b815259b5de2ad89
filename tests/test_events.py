"""Ingestion, filtering, and time-feature tests."""

import calendar
import dataclasses
import json
import tracemalloc
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loginwatch import events as events_module
from loginwatch.encoding import (
    FEATURE_ORDER,
    EncoderState,
    TimeMode,
    build_event_indices,
    encode_event,
)
from loginwatch.events import (
    ENTRY_EVENT_TYPES,
    FilterMode,
    LogEvent,
    MalformedLineError,
    Outcome,
    RecordRejectedError,
    filter_entry_events,
    hour_and_weekday,
    load_events,
    parse_event,
    parse_record,
    write_events,
)


def raw_record(**overrides) -> dict:
    record = {
        "actor": {"id": "u042", "type": "User"},
        "eventType": "user.authentication.sso",
        "published": "2023-03-06T09:12:34Z",
        "outcome": {"result": "SUCCESS"},
        "client": {
            "userAgent": {"os": "Mac OS X"},
            "device": "Computer",
            "geographicalContext": {
                "geolocation": {"lat": 39.1031, "lon": -84.512}
            },
        },
        "target": [
            {"id": "app-mail", "type": "AppInstance"},
            {"id": "rule-1", "type": "Rule"},
        ],
    }
    record.update(overrides)
    return record


class TestParseEvent:
    def test_full_record(self):
        event = parse_event(json.dumps(raw_record()))
        assert event.actor_id == "u042"
        assert event.event_type == "user.authentication.sso"
        assert event.timestamp == datetime(2023, 3, 6, 9, 12, 34, tzinfo=timezone.utc)
        assert event.outcome is Outcome.SUCCESS
        assert event.latitude == pytest.approx(39.1031)
        assert event.longitude == pytest.approx(-84.512)
        assert event.app_id == "app-mail"
        assert event.client_os == "Mac OS X"
        assert event.client_device == "Computer"
        assert event.has_client_object is True

    def test_offset_timestamp_normalizes_to_utc(self):
        record = raw_record(published="2023-03-06T11:12:34+02:00")
        event = parse_event(json.dumps(record))
        assert event.timestamp == datetime(2023, 3, 6, 9, 12, 34, tzinfo=timezone.utc)

    def test_subsecond_precision_truncated(self):
        record = raw_record(published="2023-03-06T09:12:34.987Z")
        event = parse_event(json.dumps(record))
        assert event.timestamp.microsecond == 0

    def test_unknown_outcome_collapses_to_other(self):
        for result in ("SKIPPED", "DENY", "", None):
            record = raw_record(outcome={"result": result})
            assert parse_event(json.dumps(record)).outcome is Outcome.OTHER

    def test_missing_outcome_object(self):
        record = raw_record()
        del record["outcome"]
        assert parse_event(json.dumps(record)).outcome is Outcome.OTHER

    def test_failure_outcome(self):
        record = raw_record(outcome={"result": "FAILURE"})
        assert parse_event(json.dumps(record)).outcome is Outcome.FAILURE

    def test_no_client_object(self):
        record = raw_record()
        del record["client"]
        event = parse_event(json.dumps(record))
        assert event.has_client_object is False
        assert event.latitude is None and event.longitude is None
        assert event.client_os == "" and event.client_device == ""

    def test_missing_geolocation(self):
        record = raw_record()
        del record["client"]["geographicalContext"]
        event = parse_event(json.dumps(record))
        assert not event.has_location
        assert event.has_client_object is True

    def test_out_of_range_coordinates_dropped(self):
        record = raw_record()
        record["client"]["geographicalContext"]["geolocation"] = {
            "lat": 1234.0,
            "lon": 0.0,
        }
        assert not parse_event(json.dumps(record)).has_location

    def test_no_app_instance_target(self):
        record = raw_record(target=[{"id": "rule-1", "type": "Rule"}])
        assert parse_event(json.dumps(record)).app_id == ""

    def test_missing_actor_rejected(self):
        record = raw_record(actor={})
        with pytest.raises(RecordRejectedError):
            parse_event(json.dumps(record))

    def test_missing_event_type_rejected(self):
        record = raw_record()
        del record["eventType"]
        with pytest.raises(RecordRejectedError):
            parse_event(json.dumps(record))

    def test_missing_timestamp_rejected(self):
        record = raw_record()
        del record["published"]
        with pytest.raises(RecordRejectedError):
            parse_event(json.dumps(record))

    def test_malformed_json_reports_line(self):
        with pytest.raises(MalformedLineError) as excinfo:
            parse_event("{not json", line_number=17)
        assert "line 17" in str(excinfo.value)

    def test_non_object_line(self):
        with pytest.raises(MalformedLineError):
            parse_event("[1, 2, 3]")

    def test_parse_event_is_decode_then_parse_record(self):
        record = raw_record()
        assert parse_event(json.dumps(record)) == parse_record(record)
        with pytest.raises(MalformedLineError) as excinfo:
            parse_record([1, 2, 3], line_number=4)
        assert excinfo.value.line_number == 4


def client_record(**client) -> dict:
    return raw_record(client=client)


# (record, the LogEvent fields it must give). Each case pins a path through
# ``parse_record`` that the well-formed records above do not take.
EDGE_RECORDS = {
    "list-result": (raw_record(outcome={"result": ["SUCCESS"]}), {"outcome": Outcome.OTHER}),
    "dict-result": (raw_record(outcome={"result": {"SUCCESS": 1}}), {"outcome": Outcome.OTHER}),
    "string-outcome": (raw_record(outcome="SUCCESS"), {"outcome": Outcome.OTHER}),
    "bool-coordinates": (
        client_record(geographicalContext={"geolocation": {"lat": True, "lon": False}}),
        {"latitude": None, "longitude": None},
    ),
    "one-bool-coordinate": (
        client_record(geographicalContext={"geolocation": {"lat": 10.0, "lon": True}}),
        {"latitude": None, "longitude": None},
    ),
    "int-coordinates": (
        client_record(geographicalContext={"geolocation": {"lat": -90, "lon": 180}}),
        {"latitude": -90.0, "longitude": 180.0},
    ),
    "longitude-out-of-range": (
        client_record(geographicalContext={"geolocation": {"lat": 10.0, "lon": 180.5}}),
        {"latitude": None, "longitude": None},
    ),
    "latitude-out-of-range": (
        client_record(geographicalContext={"geolocation": {"lat": -90.01, "lon": 0.0}}),
        {"latitude": None, "longitude": None},
    ),
    "nan-latitude": (
        client_record(geographicalContext={"geolocation": {"lat": float("nan"), "lon": 0.0}}),
        {"latitude": None, "longitude": None},
    ),
    "string-coordinates": (
        client_record(geographicalContext={"geolocation": {"lat": "1", "lon": "2"}}),
        {"latitude": None, "longitude": None},
    ),
    "one-coordinate": (
        client_record(geographicalContext={"geolocation": {"lat": 1.0}}),
        {"latitude": None, "longitude": None},
    ),
    "string-client": (
        raw_record(client="Mac OS X"),
        {"has_client_object": False, "client_os": "", "client_device": "", "latitude": None},
    ),
    "list-client": (
        raw_record(client=[{"device": "Computer"}]),
        {"has_client_object": False, "client_device": ""},
    ),
    "string-user-agent": (
        client_record(userAgent="Mac OS X", device="Computer"),
        {"has_client_object": True, "client_os": "", "client_device": "Computer"},
    ),
    "list-geolocation": (
        client_record(geographicalContext={"geolocation": [39.1, -84.5]}),
        {"has_client_object": True, "latitude": None, "longitude": None},
    ),
    "string-geographical-context": (
        client_record(geographicalContext="Cincinnati"),
        {"latitude": None, "longitude": None},
    ),
    "falsy-os-and-device": (
        client_record(userAgent={"os": 0}, device=[]),
        {"client_os": "", "client_device": ""},
    ),
    "false-os-and-empty-device": (
        client_record(userAgent={"os": False}, device=""),
        {"client_os": "", "client_device": ""},
    ),
    "non-string-os-and-device": (
        client_record(userAgent={"os": 10}, device={"kind": "Computer"}),
        {"client_os": "", "client_device": ""},
    ),
    "true-os-and-list-device": (
        client_record(userAgent={"os": True}, device=["Computer"]),
        {"client_os": "", "client_device": ""},
    ),
    "target-id": (
        raw_record(target=[{"type": "AppInstance", "id": "app-1", "alternateId": "alt-1"}]),
        {"app_id": "app-1"},
    ),
    "target-alternate-id-only": (
        raw_record(target=[{"type": "AppInstance", "alternateId": "alt-1"}]),
        {"app_id": "alt-1"},
    ),
    "target-empty-id-falls-back": (
        raw_record(target=[{"type": "AppInstance", "id": "", "alternateId": "alt-2"}]),
        {"app_id": "alt-2"},
    ),
    "target-numeric-id": (
        raw_record(target=[{"type": "AppInstance", "id": 7}]),
        {"app_id": "7"},
    ),
    "target-object-id": (
        raw_record(
            target=[{"type": "AppInstance", "id": {"name": "crm"}, "alternateId": "alt-4"}]
        ),
        {"app_id": "alt-4"},
    ),
    "target-bool-id": (
        raw_record(target=[{"type": "AppInstance", "id": True}]),
        {"app_id": ""},
    ),
    "target-list-id": (
        raw_record(target=[{"type": "AppInstance", "id": ["app-5"], "alternateId": False}]),
        {"app_id": ""},
    ),
    "target-first-app-wins": (
        raw_record(target=[{"type": "AppInstance"}, {"type": "AppInstance", "id": "app-3"}]),
        {"app_id": ""},
    ),
    "target-non-object-items": (
        raw_record(target=["AppInstance", 3, None, {"type": "AppInstance", "id": "app-2"}]),
        {"app_id": "app-2"},
    ),
    "target-not-a-list": (
        raw_record(target={"type": "AppInstance", "id": "app-1"}),
        {"app_id": ""},
    ),
    "stamp-offset": (
        raw_record(published="2023-03-06T04:42:34-04:30"),
        {"timestamp": datetime(2023, 3, 6, 9, 12, 34, tzinfo=timezone.utc)},
    ),
    "stamp-microseconds": (
        raw_record(published="2023-03-06T09:12:34.999999Z"),
        {"timestamp": datetime(2023, 3, 6, 9, 12, 34, tzinfo=timezone.utc)},
    ),
    "stamp-microseconds-and-offset": (
        raw_record(published="2023-03-06T10:12:34.5+01:00"),
        {"timestamp": datetime(2023, 3, 6, 9, 12, 34, tzinfo=timezone.utc)},
    ),
    "stamp-no-zone": (
        raw_record(published="2023-03-06T09:12:34"),
        {"timestamp": datetime(2023, 3, 6, 9, 12, 34, tzinfo=timezone.utc)},
    ),
    "stamp-padded": (
        raw_record(published=" 2023-03-06T09:12:34Z\n"),
        {"timestamp": datetime(2023, 3, 6, 9, 12, 34, tzinfo=timezone.utc)},
    ),
    "stamp-utc-offset": (
        raw_record(published="2023-03-06T09:12:34+00:00"),
        {"timestamp": datetime(2023, 3, 6, 9, 12, 34, tzinfo=timezone.utc)},
    ),
}


class TestParseRecordEdges:
    @pytest.mark.parametrize("case", sorted(EDGE_RECORDS))
    def test_edge_record(self, case):
        record, expected = EDGE_RECORDS[case]
        event = parse_record(record)
        for field, value in expected.items():
            assert getattr(event, field) == value, field
        assert event.timestamp.tzinfo is timezone.utc
        assert event.timestamp.microsecond == 0
        assert type(event.client_os) is str and type(event.client_device) is str

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"actor": {"id": ""}}, "line 3: missing actor.id"),
            ({"actor": {"id": 42}}, "line 3: missing actor.id"),
            ({"actor": "u042"}, "line 3: missing actor.id"),
            ({"eventType": ["user.authentication.sso"]}, "line 3: missing eventType"),
            ({"published": 1678093954}, "line 3: missing published timestamp"),
            ({"published": ""}, "line 3: missing published timestamp"),
            (
                {"published": "2023-03-06T25:00:00Z"},
                "line 3: bad timestamp '2023-03-06T25:00:00Z': "
                "hour must be in 0..23",
            ),
            (
                {"published": "yesterday"},
                "line 3: bad timestamp 'yesterday': Invalid isoformat string: 'yesterday'",
            ),
            (
                {"published": "2023-03-06T09:12:34ZZ"},
                "line 3: bad timestamp '2023-03-06T09:12:34ZZ': "
                "Invalid isoformat string: '2023-03-06T09:12:34Z+00:00'",
            ),
            (
                {"published": "0001-01-01T00:30:00+01:00"},
                "line 3: bad timestamp '0001-01-01T00:30:00+01:00': date value out of range",
            ),
            (
                {"published": "9999-12-31T23:00:00-05:00"},
                "line 3: bad timestamp '9999-12-31T23:00:00-05:00': date value out of range",
            ),
        ],
        ids=[
            "empty-actor", "numeric-actor", "string-actor", "list-event-type",
            "numeric-stamp", "empty-stamp", "hour-25", "words", "double-zone",
            "before-year-1", "after-year-9999",
        ],
    )
    def test_edge_rejection(self, changes, message):
        with pytest.raises(RecordRejectedError) as excinfo:
            parse_record(raw_record(**changes), line_number=3)
        assert str(excinfo.value) == message
        assert excinfo.value.line_number == 3


class TestFlatRoundTrip:
    def test_parse_serialize_parse_is_stable(self):
        event = parse_event(json.dumps(raw_record()))
        line = event.to_json_line()
        again = LogEvent.from_flat_dict(json.loads(line))
        assert again == event
        assert again.to_json_line() == line

    def test_absent_location_round_trips(self):
        record = raw_record()
        del record["client"]["geographicalContext"]
        event = parse_event(json.dumps(record))
        again = LogEvent.from_flat_dict(json.loads(event.to_json_line()))
        assert again == event

    def test_integer_coordinates_are_written_as_floats(self):
        record = raw_record()
        record["client"]["geographicalContext"]["geolocation"] = {"lat": 40, "lon": -75}
        raw = parse_record(record)
        flat = {**raw.to_flat_dict(), "latitude": 40, "longitude": -75}
        event = LogEvent.from_flat_dict(flat)
        assert type(event.latitude) is float and type(event.longitude) is float
        assert event.to_json_line() == raw.to_json_line()
        assert '"latitude": 40.0, "longitude": -75.0' in event.to_json_line()

    def test_coordinates_must_come_in_pairs(self):
        with pytest.raises(ValueError):
            LogEvent(
                actor_id="u1",
                timestamp=datetime.now(timezone.utc),
                event_type="user.authentication.sso",
                outcome=Outcome.SUCCESS,
                latitude=10.0,
            )


class TestLoadEvents:
    def test_mixed_stream_counts_rejects(self, tmp_path):
        good = json.dumps(raw_record())
        bad = json.dumps(raw_record(actor={}))
        flat = parse_event(good).to_json_line()
        path = tmp_path / "events.jsonl"
        path.write_text(f"{good}\n{bad}\n{flat}\n", encoding="utf-8")
        events, stats = load_events(path)
        assert stats.parsed == 2
        assert stats.rejected == 1
        assert events[0] == events[1]  # raw and flat forms agree

    def test_each_line_is_decoded_once(self, tmp_path, monkeypatch):
        good = json.dumps(raw_record())
        bad = json.dumps(raw_record(actor={}))
        flat = parse_event(good).to_json_line()
        path = tmp_path / "events.jsonl"
        path.write_text(f"{good}\n{bad}\n{flat}\n[1, 2]\n{good}\n", encoding="utf-8")
        scan, decode = events_module._SCAN, json.loads
        scanned, decoded = [], []

        def counting_scan(text, offset):
            scanned.append(text)
            return scan(text, offset)

        def counting_loads(text, *args, **kwargs):
            decoded.append(text)
            return decode(text, *args, **kwargs)

        monkeypatch.setattr(events_module, "_SCAN", counting_scan)
        monkeypatch.setattr(json, "loads", counting_loads)
        events, stats = load_events(path)
        # each line is one JSON value and a newline: the scanner reads it, once
        assert len(scanned) == stats.lines == 5
        assert decoded == []
        assert (stats.parsed, stats.rejected) == (3, 2)  # no actor, not an object

    @pytest.mark.parametrize(
        "changes, reason",
        [
            ({"timestamp": 123}, "timestamp must be a string, got int"),
            ({"timestamp": None}, "timestamp must be a string, got NoneType"),
            (
                {"latitude": "1", "longitude": "2"},
                "latitude must be a number or null, got str",
            ),
            ({"actor_id": 42}, "actor_id must be a string, got int"),
            ({"event_type": ["x"]}, "event_type must be a string, got list"),
            ({"app_id": 3}, "app_id must be a string, got int"),
            ({"outcome": 1}, "outcome must be a string, got int"),
            (
                {"latitude": True, "longitude": False},
                "latitude must be a number or null, got bool",
            ),
            (
                {"latitude": 10.0, "longitude": True},
                "longitude must be a number or null, got bool",
            ),
            ({"client_os": False}, "client_os must be a string, got bool"),
            ({"latitude": 10**400, "longitude": 0}, "latitude out of range"),
            ({"has_client_object": "false"}, "has_client_object must be a boolean, got str"),
            ({"has_client_object": {"x": 1}}, "has_client_object must be a boolean, got dict"),
            ({"has_client_object": 1}, "has_client_object must be a boolean, got int"),
            ({"has_client_object": None}, "has_client_object must be a boolean, got NoneType"),
        ],
        ids=[
            "int-timestamp", "null-timestamp", "string-coordinates", "int-actor",
            "list-event-type", "int-app", "int-outcome", "bool-coordinates",
            "bool-longitude", "bool-os", "past-float-latitude", "string-client-flag",
            "object-client-flag", "int-client-flag", "null-client-flag",
        ],
    )
    def test_flat_record_of_wrong_type_is_rejected(self, tmp_path, caplog, changes, reason):
        flat = {"actor_id": "u1", "timestamp": "2023-03-06T09:12:34Z",
                "event_type": "x", "outcome": "SUCCESS"}
        good = json.dumps(flat)
        path = tmp_path / "events.jsonl"
        path.write_text(f"{good}\n{json.dumps({**flat, **changes})}\n{good}\n", encoding="utf-8")
        events, stats = load_events(path)
        assert (stats.lines, stats.parsed, stats.rejected) == (3, 2, 1)
        assert len(events) == 2
        (warning,) = [r.getMessage() for r in caplog.records if "rejected" in r.getMessage()]
        assert warning == f"rejected record at line 2: {reason}"

    @pytest.mark.parametrize(
        "key, reason",
        [("actor_id", "missing actor_id"), ("event_type", "missing event_type")],
    )
    def test_flat_record_with_empty_name_is_rejected(self, tmp_path, key, reason):
        # the raw path rejects an empty actor.id or eventType as missing
        flat = {"actor_id": "u1", "timestamp": "2023-03-06T09:12:34Z",
                "event_type": "x", "outcome": "SUCCESS", key: ""}
        with pytest.raises(RecordRejectedError, match=reason):
            LogEvent.from_flat_dict(flat)
        path = tmp_path / "events.jsonl"
        path.write_text(json.dumps(flat) + "\n", encoding="utf-8")
        events, stats = load_events(path)
        assert (events, stats.rejected) == ([], 1)

    @pytest.mark.parametrize("flag", [True, False, None], ids=["true", "false", "absent"])
    def test_flat_client_flag_is_a_boolean_or_absent(self, flag):
        flat = {"actor_id": "u1", "timestamp": "2023-03-06T09:12:34Z",
                "event_type": "x", "outcome": "SUCCESS"}
        if flag is not None:
            flat["has_client_object"] = flag
        event = LogEvent.from_flat_dict(flat)
        assert event.has_client_object is bool(flag)
        keep = filter_entry_events([event], FilterMode.CLIENT_INFO)
        assert keep == ([event] if flag else [])

    def test_malformed_line_is_fatal_with_offset(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(json.dumps(raw_record()) + "\n{broken\n", encoding="utf-8")
        with pytest.raises(MalformedLineError) as excinfo:
            load_events(path)
        assert excinfo.value.line_number == 2

    @pytest.mark.parametrize(
        "line",
        [
            "1" * 5000,
            "[" * 100_000 + "]" * 100_000,
            json.dumps(raw_record(big=0)).replace('"big": 0', '"big": ' + "1" * 5000),
            json.dumps(raw_record()).replace('"Rule"', "[" * 100_000 + "]" * 100_000),
        ],
        ids=["long-integer", "deep-nesting", "long-integer-in-record", "deep-nesting-in-record"],
    )
    def test_undecodable_line_is_fatal_with_offset(self, tmp_path, line):
        # valid JSON, but past the int-to-str digit limit or the recursion limit
        path = tmp_path / "events.jsonl"
        path.write_text(json.dumps(raw_record()) + f"\n{line}\n", encoding="utf-8")
        with pytest.raises(MalformedLineError) as excinfo:
            load_events(path)
        assert excinfo.value.line_number == 2
        assert str(excinfo.value).startswith("line 2: undecodable JSON: ")

    @pytest.mark.parametrize(
        "line",
        [
            json.dumps(raw_record()) + " {}",
            json.dumps(raw_record()) + json.dumps(raw_record()),
            json.dumps(raw_record()) + " x",
            "\ufeff" + json.dumps(raw_record()),
            json.dumps(raw_record())[:-1],
            "\x0c" + json.dumps(raw_record()),
        ],
        ids=["extra-data", "two-objects", "trailing-text", "bom", "unclosed", "form-feed"],
    )
    def test_invalid_line_is_fatal_with_the_json_loads_message(self, tmp_path, line):
        with pytest.raises(json.JSONDecodeError) as refused:
            json.loads(line)
        path = tmp_path / "events.jsonl"
        path.write_text(json.dumps(raw_record()) + f"\n{line}\n", encoding="utf-8")
        with pytest.raises(MalformedLineError) as excinfo:
            load_events(path)
        assert str(excinfo.value) == f"line 2: invalid JSON: {refused.value.msg}"

    @pytest.mark.parametrize(
        "line",
        [
            " \t" + json.dumps(raw_record()),
            json.dumps(raw_record()) + " \t\r ",
            json.dumps(raw_record()).replace("39.1031", "NaN"),
            json.dumps(raw_record()).replace("-84.512", "-Infinity"),
            json.dumps(raw_record(deep=0)).replace('"deep": 0', '"deep": ' + "[" * 500 + "]" * 500),
            json.dumps(raw_record(big=0)).replace('"big": 0', '"big": ' + "7" * 4000),
        ],
        ids=[
            "leading-whitespace", "trailing-whitespace", "nan-literal",
            "infinity-literal", "deep-nesting-json-reads", "long-integer-json-reads",
        ],
    )
    def test_line_is_read_as_json_loads_reads_it(self, tmp_path, line):
        path = tmp_path / "events.jsonl"
        path.write_text(f"{line}\n", encoding="utf-8")
        events, stats = load_events(path)
        assert (stats.parsed, stats.rejected) == (1, 0)
        assert events == [parse_record(json.loads(line))]
        # the same value (NaN is unequal to itself, so compare as JSON text)
        decoded = events_module._decode(line, 1)
        assert json.dumps(decoded, sort_keys=True) == json.dumps(json.loads(line), sort_keys=True)

    def test_write_then_load(self, tmp_path):
        events = [parse_event(json.dumps(raw_record())) for _ in range(3)]
        path = tmp_path / "out.jsonl"
        assert write_events(events, path) == 3
        loaded, stats = load_events(path)
        assert loaded == events
        assert stats.rejected == 0


STRING_FIELDS = ("actor_id", "event_type", "app_id", "client_os", "client_device")


def write_lines(path, records) -> None:
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


class TestCompactEvents:
    """A loaded login shares its strings within the call and has no instance dict."""

    @pytest.fixture(params=["raw", "flat"])
    def two_logins(self, request, tmp_path):
        records = [raw_record(), raw_record(published="2023-03-06T10:00:00Z")]
        if request.param == "flat":
            records = [parse_record(r).to_flat_dict() for r in records]
        path = tmp_path / "events.jsonl"
        write_lines(path, records)
        return path

    def test_equal_values_share_one_object_within_a_call(self, two_logins):
        (first, second), _ = load_events(two_logins)
        for field in STRING_FIELDS:
            value = getattr(first, field)
            assert len(value) > 1, field  # CPython shares "" and 1-character strings anyway
            assert getattr(second, field) is value, field

    def test_calls_share_no_string(self, two_logins):
        first, _ = load_events(two_logins)
        second, _ = load_events(two_logins)
        assert second == first
        for field in STRING_FIELDS:
            assert getattr(second[0], field) is not getattr(first[0], field), field

    def test_event_is_slotted_frozen_and_replaceable(self):
        event = parse_record(raw_record())
        assert not hasattr(event, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            event.app_id = "app-other"
        moved = dataclasses.replace(event, latitude=0.0, longitude=0.0)
        assert (moved.latitude, moved.longitude) == (0.0, 0.0)
        assert moved.actor_id is event.actor_id and moved.timestamp == event.timestamp
        assert event.latitude == pytest.approx(39.1031)
        again = parse_record(raw_record())
        assert again == event and hash(again) == hash(event) and moved != event

    def test_loaded_login_keeps_under_300_bytes(self, tmp_path):
        # Repeated actors, apps, clients and event types, distinct instants and
        # places: each login keeps about 560 bytes when it holds a private copy
        # of every string and an instance dict, and about 220 without.
        event_types = sorted(ENTRY_EVENT_TYPES)
        records = [
            raw_record(
                actor={"id": f"user-{i % 40:03d}", "type": "User"},
                eventType=event_types[i % 2],
                published=f"2023-03-{1 + i // 1000:02d}T{i % 24:02d}:{i % 60:02d}:00Z",
                client={
                    "userAgent": {"os": ("Mac OS X", "Windows", "iOS")[i % 3]},
                    "device": ("Computer", "Mobile")[i % 2],
                    "geographicalContext": {
                        "geolocation": {"lat": -60.0 + i * 0.02, "lon": 120.0 - i * 0.03}
                    },
                },
                target=[{"id": f"app-{i % 12:02d}", "type": "AppInstance"}],
            )
            for i in range(5000)
        ]
        path = tmp_path / "events.jsonl"
        write_lines(path, records)
        load_events(path)  # first-call imports and caches stay out of the count
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            events, stats = load_events(path)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert stats.parsed == len(events) == 5000
        assert kept / len(events) < 300


class TestFilterEntryEvents:
    def make(self, event_type, has_client=True):
        record = raw_record(eventType=event_type)
        if not has_client:
            del record["client"]
        return parse_event(json.dumps(record))

    def test_sign_on_keeps_both_entry_types(self):
        events = [
            self.make("policy.evaluate_sign_on"),
            self.make("user.session.start"),
            self.make("user.authentication.sso"),
            self.make("app.oauth2.token.grant"),
        ]
        kept = filter_entry_events(events, FilterMode.SIGN_ON)
        assert [e.event_type for e in kept] == [
            "policy.evaluate_sign_on",
            "user.authentication.sso",
        ]
        assert set(e.event_type for e in kept) <= ENTRY_EVENT_TYPES

    def test_client_info_mode(self):
        events = [
            self.make("user.authentication.sso", has_client=True),
            self.make("user.authentication.sso", has_client=False),
        ]
        kept = filter_entry_events(events, FilterMode.CLIENT_INFO)
        assert kept == [events[0]]

    def test_preserves_order_as_subsequence(self):
        events = [
            self.make("user.authentication.sso"),
            self.make("x.y"),
            self.make("policy.evaluate_sign_on"),
            self.make("user.authentication.sso"),
        ]
        kept = filter_entry_events(events)
        positions = [events.index(e) for e in kept]
        # index() finds first equal element; compare identities instead
        positions = [i for i, e in enumerate(events) if any(k is e for k in kept)]
        assert positions == sorted(positions)
        assert len(kept) == 3


def coarse_time_columns(ts: datetime, active_hours) -> tuple[int, int]:
    """The hour and weekday columns of a login at ``ts`` in COARSE time mode."""
    event = LogEvent(
        actor_id="u1", timestamp=ts, event_type="user.authentication.sso",
        outcome=Outcome.SUCCESS,
    )
    encoder = EncoderState(
        geohash_precision=3,
        time_mode=TimeMode.COARSE,
        active_hours=frozenset(active_hours),
        indices=build_event_indices([event]),
        known_apps=frozenset(),
    )
    row = encode_event(event, encoder)
    return row[FEATURE_ORDER.index("event_hour")], row[FEATURE_ORDER.index("weekday")]


class TestTimeFeatures:
    def test_weekday_matches_calendar_oracle(self):
        # calendar.weekday: Monday=0 .. Sunday=6. Remap to Sunday=1 .. Saturday=7.
        for day in range(1, 29):
            ts = datetime(2023, 6, day, 12, 0, 0, tzinfo=timezone.utc)
            oracle = (calendar.weekday(2023, 6, day) + 1) % 7 + 1
            assert hour_and_weekday(ts)[1] == oracle
            # COARSE mode flags a weekday (not Sunday or Saturday) with 1
            assert coarse_time_columns(ts, {13})[1] == int(oracle not in (1, 7))

    def test_known_sunday(self):
        # 2023-01-01 was a Sunday.
        assert calendar.weekday(2023, 1, 1) == 6
        sunday = datetime(2023, 1, 1, 8, 0, 0, tzinfo=timezone.utc)
        assert hour_and_weekday(sunday) == (9, 1)
        assert coarse_time_columns(sunday, {9})[1] == 0

    def test_known_monday(self):
        monday = datetime(2023, 1, 2, 8, 0, 0, tzinfo=timezone.utc)
        assert hour_and_weekday(monday) == (9, 2)
        assert coarse_time_columns(monday, {9})[1] == 1

    def test_saturday_is_seven(self):
        saturday = datetime(2023, 1, 7, 8, 0, 0, tzinfo=timezone.utc)
        assert hour_and_weekday(saturday) == (9, 7)
        assert coarse_time_columns(saturday, {9})[1] == 0

    def test_hour_range_shifted_by_one(self):
        midnight = hour_and_weekday(datetime(2023, 5, 4, 0, 0, 0, tzinfo=timezone.utc))
        assert midnight[0] == 1
        last = hour_and_weekday(datetime(2023, 5, 4, 23, 59, 59, tzinfo=timezone.utc))
        assert last[0] == 24

    def test_all_hours_in_range(self):
        for hour in range(24):
            ts = datetime(2023, 5, 4, hour, 30, 0, tzinfo=timezone.utc)
            assert 1 <= hour_and_weekday(ts)[0] <= 24

    def test_coarse_flag_only_with_active_hours(self):
        # clock hour 9 UTC is event_hour 10
        ts = datetime(2023, 5, 4, 9, 0, 0, tzinfo=timezone.utc)
        assert coarse_time_columns(ts, {10, 11})[0] == 1
        assert coarse_time_columns(ts, {9, 11})[0] == 0

    @settings(max_examples=200)
    @given(
        st.datetimes(
            min_value=datetime(1970, 1, 2),
            max_value=datetime(2100, 1, 1),
            timezones=st.none()
            | st.just(timezone.utc)
            | st.integers(-1439, 1439).map(lambda m: timezone(timedelta(minutes=m))),
        )
    )
    @example(datetime(2023, 1, 1, 0, 0, 0, tzinfo=timezone.utc))
    @example(datetime(2023, 1, 1, 23, 30, 0, tzinfo=timezone(timedelta(hours=-5))))
    @example(datetime(2023, 1, 7, 23, 59, 59))
    def test_hour_and_weekday_agrees_with_calendar_oracle(self, ts):
        utc = ts.astimezone(timezone.utc)  # a naive instant is read as local time
        oracle = (utc.hour + 1, (calendar.weekday(utc.year, utc.month, utc.day) + 1) % 7 + 1)
        assert hour_and_weekday(ts) == oracle


class TestCoarseFlagValues:
    def test_flag_true_when_hour_observed(self):
        ts = datetime(2023, 5, 4, 9, 0, 0, tzinfo=timezone.utc)  # event_hour 10
        assert hour_and_weekday(ts)[0] == 10
        assert coarse_time_columns(ts, {10, 11})[0] == 1

    def test_flag_false_when_hour_unobserved(self):
        ts = datetime(2023, 5, 4, 2, 0, 0, tzinfo=timezone.utc)  # event_hour 3
        assert coarse_time_columns(ts, {10, 11})[0] == 0
