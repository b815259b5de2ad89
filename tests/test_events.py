"""Ingestion, filtering, and time-feature tests."""

import calendar
import json
from datetime import datetime, timezone

import pytest

from loginwatch.events import (
    ENTRY_EVENT_TYPES,
    FilterMode,
    LogEvent,
    MalformedLineError,
    Outcome,
    RecordRejectedError,
    derive_time_features,
    filter_entry_events,
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
        decode = json.loads
        decoded = []

        def counting_loads(text, *args, **kwargs):
            decoded.append(text)
            return decode(text, *args, **kwargs)

        monkeypatch.setattr(json, "loads", counting_loads)
        events, stats = load_events(path)
        assert len(decoded) == stats.lines == 5
        assert (stats.parsed, stats.rejected) == (3, 2)  # no actor, not an object

    def test_malformed_line_is_fatal_with_offset(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(json.dumps(raw_record()) + "\n{broken\n", encoding="utf-8")
        with pytest.raises(MalformedLineError) as excinfo:
            load_events(path)
        assert excinfo.value.line_number == 2

    def test_write_then_load(self, tmp_path):
        events = [parse_event(json.dumps(raw_record())) for _ in range(3)]
        path = tmp_path / "out.jsonl"
        assert write_events(events, path) == 3
        loaded, stats = load_events(path)
        assert loaded == events
        assert stats.rejected == 0


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


class TestTimeFeatures:
    def test_weekday_matches_calendar_oracle(self):
        # calendar.weekday: Monday=0 .. Sunday=6. Remap to Sunday=1 .. Saturday=7.
        for day in range(1, 29):
            ts = datetime(2023, 6, day, 12, 0, 0, tzinfo=timezone.utc)
            oracle = (calendar.weekday(2023, 6, day) + 1) % 7 + 1
            features = derive_time_features(ts)
            assert features.weekday == oracle
            assert features.is_weekend == (oracle in (1, 7))

    def test_known_sunday(self):
        # 2023-01-01 was a Sunday.
        assert calendar.weekday(2023, 1, 1) == 6
        features = derive_time_features(
            datetime(2023, 1, 1, 8, 0, 0, tzinfo=timezone.utc)
        )
        assert features.weekday == 1
        assert features.is_weekend is True

    def test_known_monday(self):
        features = derive_time_features(
            datetime(2023, 1, 2, 8, 0, 0, tzinfo=timezone.utc)
        )
        assert features.weekday == 2
        assert features.is_weekend is False

    def test_saturday_is_seven(self):
        features = derive_time_features(
            datetime(2023, 1, 7, 8, 0, 0, tzinfo=timezone.utc)
        )
        assert features.weekday == 7
        assert features.is_weekend is True

    def test_hour_range_shifted_by_one(self):
        midnight = derive_time_features(
            datetime(2023, 5, 4, 0, 0, 0, tzinfo=timezone.utc)
        )
        assert midnight.event_hour == 1
        last = derive_time_features(
            datetime(2023, 5, 4, 23, 59, 59, tzinfo=timezone.utc)
        )
        assert last.event_hour == 24

    def test_all_hours_in_range(self):
        for hour in range(24):
            ts = datetime(2023, 5, 4, hour, 30, 0, tzinfo=timezone.utc)
            assert 1 <= derive_time_features(ts).event_hour <= 24

    def test_coarse_flag_only_with_active_hours(self):
        # clock hour 9 UTC is event_hour 10
        ts = datetime(2023, 5, 4, 9, 0, 0, tzinfo=timezone.utc)
        assert derive_time_features(ts).coarse_hour_flag is None
        assert derive_time_features(ts, active_hours={10, 11}).coarse_hour_flag is True
        assert derive_time_features(ts, active_hours={9, 11}).coarse_hour_flag is False


class TestCoarseFlagValues:
    def test_flag_true_when_hour_observed(self):
        ts = datetime(2023, 5, 4, 9, 0, 0, tzinfo=timezone.utc)  # event_hour 10
        features = derive_time_features(ts, active_hours={10, 11})
        assert features.event_hour == 10
        assert features.coarse_hour_flag is True

    def test_flag_false_when_hour_unobserved(self):
        ts = datetime(2023, 5, 4, 2, 0, 0, tzinfo=timezone.utc)  # event_hour 3
        features = derive_time_features(ts, active_hours={10, 11})
        assert features.coarse_hour_flag is False
