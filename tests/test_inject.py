"""Tests for labelled anomaly injection."""

from __future__ import annotations

import json
from datetime import datetime, timedelta, timezone

import pytest

from loginwatch.encoding import Label
from loginwatch.events import LogEvent, Outcome, derive_time_features, parse_event
from loginwatch.geo import geohash_encode, haversine_miles
from loginwatch.inject import InjectionKind, InjectionSpec, inject
from loginwatch.synth import generate_actor_profile, generate_logins


def located_event(
    i: int, hour: int = 14, lat: float = 40.7, lon: float = -74.0
) -> LogEvent:
    day = datetime(2023, 4, 3, tzinfo=timezone.utc) + timedelta(days=i % 5)
    return LogEvent(
        actor_id="u1",
        timestamp=day.replace(hour=hour, minute=17, second=23),
        event_type="user.authentication.sso",
        outcome=Outcome.SUCCESS,
        latitude=lat + (i % 7) * 0.001,
        longitude=lon - (i % 7) * 0.001,
        app_id="mail",
    )


def synthetic_events(days: int = 30) -> list[LogEvent]:
    profile = generate_actor_profile(7, "u001")
    return [
        parse_event(json.dumps(r), 1) for r in generate_logins(profile, days=days)
    ]


class TestSelection:
    def test_exact_count_from_fraction(self):
        events = [located_event(i) for i in range(1260)]
        for fraction, expected in [(0.1, 126), (0.25, 315), (0.0, 0), (1.0, 1260)]:
            _, labels = inject(events, InjectionSpec(fraction=fraction), 1)
            assert labels.count(Label.INJECTED) == expected

    def test_rounding_of_fractional_counts(self):
        events = [located_event(i) for i in range(25)]
        # round(0.1 * 25) = round(2.5) = 2 under banker's rounding
        _, labels = inject(events, InjectionSpec(fraction=0.1), 0)
        assert labels.count(Label.INJECTED) == 2

    def test_labels_align_with_mutations(self):
        events = [located_event(i) for i in range(100)]
        mutated, labels = inject(events, InjectionSpec(fraction=0.2), 3)
        assert len(mutated) == len(labels) == 100
        for original, new, label in zip(events, mutated, labels):
            if label is Label.INJECTED:
                assert new != original
            else:
                # untouched events are the same objects, not copies
                assert new is original

    def test_deterministic_per_seed(self):
        events = [located_event(i) for i in range(80)]
        a = inject(events, InjectionSpec(fraction=0.1), 5)
        b = inject(events, InjectionSpec(fraction=0.1), 5)
        c = inject(events, InjectionSpec(fraction=0.1), 6)
        assert a == b
        assert a != c

    def test_zero_count_returns_all_normal(self):
        events = [located_event(i) for i in range(3)]
        mutated, labels = inject(events, InjectionSpec(fraction=0.1), 0)
        assert labels == [Label.NORMAL] * 3
        assert all(m is e for m, e in zip(mutated, events))


class TestLocationInjection:
    def test_displacement_distance_and_cell_change(self):
        events = synthetic_events()
        spec = InjectionSpec(kind=InjectionKind.LOCATION, fraction=0.1, distance_miles=1000.0)
        mutated, labels = inject(events, spec, 2)
        moved = 0
        for original, new, label in zip(events, mutated, labels):
            if label is not Label.INJECTED:
                continue
            moved += 1
            miles = haversine_miles(
                original.latitude, original.longitude, new.latitude, new.longitude
            )
            assert miles == pytest.approx(1000.0, abs=1.0)
            assert geohash_encode(new.latitude, new.longitude, 3) != geohash_encode(
                original.latitude, original.longitude, 3
            )
        assert moved == round(0.1 * len(events))

    def test_only_coordinates_change(self):
        events = [located_event(i) for i in range(50)]
        mutated, labels = inject(
            events, InjectionSpec(kind=InjectionKind.LOCATION, fraction=0.3), 4
        )
        for original, new, label in zip(events, mutated, labels):
            if label is not Label.INJECTED:
                continue
            assert new.timestamp == original.timestamp
            assert new.app_id == original.app_id
            assert new.outcome == original.outcome
            assert (new.latitude, new.longitude) != (
                original.latitude,
                original.longitude,
            )

    def test_coordless_events_ineligible(self):
        bare = LogEvent(
            actor_id="u1",
            timestamp=datetime(2023, 4, 3, 9, 0, 0, tzinfo=timezone.utc),
            event_type="user.authentication.sso",
            outcome=Outcome.SUCCESS,
        )
        events = [bare] * 5 + [located_event(i) for i in range(5)]
        mutated, labels = inject(
            events, InjectionSpec(kind=InjectionKind.LOCATION, fraction=0.5), 0
        )
        for new, label in zip(mutated, labels):
            if label is Label.INJECTED:
                assert new.has_location

    def test_too_few_eligible_events_rejected(self):
        bare = LogEvent(
            actor_id="u1",
            timestamp=datetime(2023, 4, 3, 9, 0, 0, tzinfo=timezone.utc),
            event_type="user.authentication.sso",
            outcome=Outcome.SUCCESS,
        )
        events = [bare] * 9 + [located_event(0)]
        with pytest.raises(ValueError, match="eligible"):
            inject(events, InjectionSpec(kind=InjectionKind.LOCATION, fraction=0.5), 0)


class TestEventHourInjection:
    def test_moves_to_unobserved_hour(self):
        # all inputs sit at hours 9..17 (event-hour 10..18)
        events = [located_event(i, hour=9 + i % 9) for i in range(60)]
        observed = {derive_time_features(e.timestamp).event_hour for e in events}
        mutated, labels = inject(
            events, InjectionSpec(kind=InjectionKind.EVENT_HOUR, fraction=0.2), 1
        )
        for new, label in zip(mutated, labels):
            if label is Label.INJECTED:
                assert derive_time_features(new.timestamp).event_hour not in observed

    def test_preserves_minute_second_and_date(self):
        events = [located_event(i) for i in range(40)]
        mutated, labels = inject(
            events, InjectionSpec(kind=InjectionKind.EVENT_HOUR, fraction=0.25), 2
        )
        for original, new, label in zip(events, mutated, labels):
            if label is not Label.INJECTED:
                continue
            assert new.timestamp.date() == original.timestamp.date()
            assert new.timestamp.minute == original.timestamp.minute
            assert new.timestamp.second == original.timestamp.second
            assert new.timestamp.hour != original.timestamp.hour
            assert (new.latitude, new.longitude) == (
                original.latitude,
                original.longitude,
            )

    def test_falls_back_when_every_hour_observed(self):
        events = [located_event(i, hour=i % 24) for i in range(240)]
        # hour 5 appears once less often than the rest
        events = [
            e for e in events
            if not (e.timestamp.hour == 5 and e.timestamp.day == 3)
        ]
        mutated, labels = inject(
            events, InjectionSpec(kind=InjectionKind.EVENT_HOUR, fraction=0.1), 3
        )
        rare = min(
            range(1, 25),
            key=lambda h: (
                sum(
                    1
                    for e in events
                    if derive_time_features(e.timestamp).event_hour == h
                ),
                h,
            ),
        )
        for new, label in zip(mutated, labels):
            if label is Label.INJECTED:
                assert derive_time_features(new.timestamp).event_hour == rare


class TestWeekdayInjection:
    def test_flips_day_type_and_keeps_time(self):
        events = synthetic_events(days=21)
        mutated, labels = inject(
            events, InjectionSpec(kind=InjectionKind.WEEKDAY, fraction=0.15), 4
        )
        for original, new, label in zip(events, mutated, labels):
            if label is not Label.INJECTED:
                continue
            before = derive_time_features(original.timestamp)
            after = derive_time_features(new.timestamp)
            assert after.is_weekend != before.is_weekend
            assert new.timestamp > original.timestamp
            assert new.timestamp - original.timestamp <= timedelta(days=7)
            assert new.timestamp.time() == original.timestamp.time()


class TestInjectionSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            InjectionSpec(fraction=-0.1)
        with pytest.raises(ValueError):
            InjectionSpec(fraction=1.5)
        with pytest.raises(ValueError):
            InjectionSpec(distance_miles=0.0)

    def test_kind_coerced_from_string(self):
        assert InjectionSpec(kind="EVENT_HOUR").kind is InjectionKind.EVENT_HOUR
