"""Tests for the synthetic login generator."""

from __future__ import annotations

import json
from collections import Counter
from datetime import date

import numpy as np
import pytest

from loginwatch.events import hour_and_weekday, load_events, parse_event
from loginwatch.geo import geohash_encode, haversine_miles
from loginwatch.synth import (
    APP_POOL,
    DEVICE_POOL,
    KM_PER_MILE,
    OS_POOL,
    ActorProfile,
    generate_actor_profile,
    generate_corpus,
    generate_logins,
    write_jsonl,
)


def manual_profile(**overrides) -> ActorProfile:
    base = dict(
        actor_id="u001",
        home_latitude=40.0,
        home_longitude=-80.0,
        location_jitter_km=30.0,
        weekday_rate=20.0,
        weekend_rate=4.0,
        active_hours=frozenset(range(9, 18)),
        app_ids=("app-docs", "app-mail"),
        app_probs=(0.3, 0.7),
        failure_rate=0.05,
        rng_seed=99,
    )
    base.update(overrides)
    return ActorProfile(**base)


class TestActorProfile:
    def test_deterministic_for_seed_and_actor(self):
        a = generate_actor_profile(7, "u001")
        b = generate_actor_profile(7, "u001")
        assert a == b

    def test_distinct_across_actors_and_seeds(self):
        base = generate_actor_profile(7, "u001")
        assert base != generate_actor_profile(7, "u002")
        assert base != generate_actor_profile(8, "u001")

    def test_invariants_hold_across_many_actors(self):
        for i in range(40):
            profile = generate_actor_profile(3, f"u{i:03d}")
            assert 15.0 <= profile.weekday_rate <= 25.0
            assert profile.weekend_rate <= 0.4 * profile.weekday_rate + 1e-9
            assert 3 <= len(profile.app_ids) <= 10
            assert set(profile.app_ids) <= set(APP_POOL)
            assert len(set(profile.app_ids)) == len(profile.app_ids)
            assert sum(profile.app_probs) == pytest.approx(1.0)
            assert 8 <= min(profile.active_hours)
            assert max(profile.active_hours) <= 22
            assert len(profile.active_hours) >= 8
            assert 25.0 <= profile.home_latitude <= 55.0
            assert -125.0 <= profile.home_longitude <= -70.0

    def test_dominant_apps_carry_most_mass(self):
        profile = generate_actor_profile(7, "u001")
        top = sorted(profile.app_probs, reverse=True)
        # the dominant subset holds 70..90% of the probability mass
        assert sum(top[:3]) >= 0.7

    def test_validation_rejects_bad_profiles(self):
        with pytest.raises(ValueError):
            manual_profile(weekend_rate=25.0)
        with pytest.raises(ValueError):
            manual_profile(active_hours=frozenset())
        with pytest.raises(ValueError):
            manual_profile(active_hours=frozenset({0, 9}))
        with pytest.raises(ValueError):
            manual_profile(app_probs=(0.5, 0.6))
        with pytest.raises(ValueError):
            manual_profile(failure_rate=1.0)


class TestGenerateLogins:
    def test_deterministic_and_chronological(self):
        profile = generate_actor_profile(7, "u001")
        a = generate_logins(profile, days=30)
        b = generate_logins(profile, days=30)
        assert a == b
        published = [r["published"] for r in a]
        assert published == sorted(published)

    def test_records_parse_as_entry_events(self):
        profile = generate_actor_profile(7, "u002")
        records = generate_logins(profile, days=20)
        assert records
        for i, record in enumerate(records):
            event = parse_event(json.dumps(record), i + 1)
            assert event.actor_id == "u002"
            assert event.has_location
            assert event.app_id in profile.app_ids
            assert event.client_os in OS_POOL
            assert event.client_device in DEVICE_POOL

    def test_hours_stay_inside_active_window(self):
        profile = manual_profile(active_hours=frozenset(range(9, 18)), rng_seed=5)
        for record in generate_logins(profile, days=40):
            event = parse_event(json.dumps(record), 1)
            assert hour_and_weekday(event.timestamp)[0] in profile.active_hours

    def test_daily_volume_tracks_rates(self):
        profile = manual_profile(weekday_rate=20.0, weekend_rate=4.0, rng_seed=123)
        # 2023-01-02 is a Monday; 28 days = 20 weekdays + 8 weekend days
        records = generate_logins(profile, start_date=date(2023, 1, 2), days=28)
        weekday_counts: Counter[str] = Counter()
        weekend_counts: Counter[str] = Counter()
        for record in records:
            event = parse_event(json.dumps(record), 1)
            day = event.timestamp.date()
            bucket = weekend_counts if day.weekday() >= 5 else weekday_counts
            bucket[day.isoformat()] += 1
        weekday_mean = sum(weekday_counts.values()) / 20
        weekend_mean = sum(weekend_counts.values()) / 8
        assert weekday_mean == pytest.approx(20.0, abs=3.0)
        assert weekend_mean == pytest.approx(4.0, abs=2.5)
        assert weekend_mean < weekday_mean

    def test_locations_cluster_near_home(self):
        profile = manual_profile(location_jitter_km=30.0, rng_seed=11)
        cells = Counter()
        for record in generate_logins(profile, days=60):
            event = parse_event(json.dumps(record), 1)
            miles = haversine_miles(
                profile.home_latitude, profile.home_longitude,
                event.latitude, event.longitude,
            )
            assert miles <= 30.0 / KM_PER_MILE + 0.1
            cells[geohash_encode(event.latitude, event.longitude, 3)] += 1
        # a 30 km disk overlaps only a handful of precision-3 cells
        assert 1 <= len(cells) <= 9
        top_share = cells.most_common(1)[0][1] / sum(cells.values())
        assert top_share > 0.3

    def test_rejects_nonpositive_days(self):
        with pytest.raises(ValueError):
            generate_logins(manual_profile(), days=0)


class TestGenerateCorpus:
    def test_actor_ids_and_global_order(self):
        records = generate_corpus(actor_count=4, days=10, seed=7)
        actors = {r["actor"]["id"] for r in records}
        assert actors == {"u001", "u002", "u003", "u004"}
        keys = [(r["published"], r["actor"]["id"]) for r in records]
        assert keys == sorted(keys)

    def test_deterministic(self):
        a = generate_corpus(actor_count=3, days=8, seed=5)
        b = generate_corpus(actor_count=3, days=8, seed=5)
        assert a == b
        assert a != generate_corpus(actor_count=3, days=8, seed=6)

    def test_rejects_empty_roster(self):
        with pytest.raises(ValueError):
            generate_corpus(actor_count=0, days=5, seed=1)

    def test_write_jsonl_round_trips_through_ingestion(self, tmp_path):
        records = generate_corpus(actor_count=2, days=6, seed=9)
        path = tmp_path / "raw.jsonl"
        count = write_jsonl(records, path)
        assert count == len(records)
        events, stats = load_events(path)
        assert stats.parsed == len(records)
        assert stats.rejected == 0
        assert len(events) == len(records)
