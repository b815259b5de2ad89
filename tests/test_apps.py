"""Tests for Wilson intervals, app frequency profiles, and known-app supersets."""

from __future__ import annotations

import json
import math
from datetime import datetime, timezone

import pytest

from loginwatch.apps import (
    AppFrequency,
    AppSuperset,
    build_superset,
    interval_mean,
    login_frequencies,
    wilson_interval,
)
from loginwatch.events import LogEvent, Outcome


def oracle_wilson(successes: int, total: int, z: float) -> tuple[float, float]:
    """Wilson bounds via the quadratic-root formulation.

    The bounds solve (p_hat - p)^2 = z^2 p (1 - p) / n, a different algebra
    path from the closed center/half form in the implementation.
    """
    p_hat = successes / total
    a = 1.0 + z * z / total
    b = -(2.0 * p_hat + z * z / total)
    c = p_hat * p_hat
    disc = math.sqrt(b * b - 4.0 * a * c)
    low = (-b - disc) / (2.0 * a)
    high = (-b + disc) / (2.0 * a)
    return max(0.0, low), min(1.0, high)


def make_event(actor: str, app: str, outcome: Outcome = Outcome.SUCCESS) -> LogEvent:
    return LogEvent(
        actor_id=actor,
        timestamp=datetime(2023, 3, 1, 12, 0, 0, tzinfo=timezone.utc),
        event_type="user.session.start",
        outcome=outcome,
        app_id=app,
    )


class TestWilsonInterval:
    def test_known_value_one_of_four(self):
        low, high = wilson_interval(1, 4, 1.96)
        assert low == pytest.approx(0.0456, abs=1e-4)
        assert high == pytest.approx(0.6993, abs=1e-4)

    @pytest.mark.parametrize("z", [0.5, 1.0, 1.96, 3.0, 10.0])
    @pytest.mark.parametrize("k,n", [(2, 4), (4, 8), (10, 20)])
    def test_mean_exactly_half_at_half_rate(self, k, n, z):
        low, high = wilson_interval(k, n, z)
        assert interval_mean(low, high) == pytest.approx(0.5, abs=1e-12)

    def test_matches_quadratic_root_oracle(self):
        for k, n, z in [(0, 7, 1.96), (3, 9, 1.0), (5, 5, 2.5), (13, 40, 1.96), (1, 100, 3.0)]:
            got = wilson_interval(k, n, z)
            want = oracle_wilson(k, n, z)
            assert got[0] == pytest.approx(want[0], abs=1e-12)
            assert got[1] == pytest.approx(want[1], abs=1e-12)

    def test_bounds_inside_unit_interval(self):
        for k in range(0, 13):
            low, high = wilson_interval(k, 12, 1.96)
            assert 0.0 <= low <= high <= 1.0

    def test_width_shrinks_with_more_trials(self):
        widths = []
        for n in (4, 16, 64, 256):
            low, high = wilson_interval(n // 2, n, 1.96)
            widths.append(high - low)
        assert widths == sorted(widths, reverse=True)

    def test_exact_coverage_near_nominal(self):
        # exact binomial coverage at z=1.96, no sampling noise; the coverage
        # staircase oscillates around the nominal 95% and overshoots at some
        # (n, p) lattice points, e.g. n=20, p=0.3
        def exact_coverage(n, p):
            total = 0.0
            for k in range(n + 1):
                low, high = wilson_interval(k, n, 1.96)
                if low <= p <= high:
                    total += math.comb(n, k) * p**k * (1 - p) ** (n - k)
            return total

        assert exact_coverage(20, 0.5) == pytest.approx(0.95861, abs=1e-4)
        assert exact_coverage(40, 0.3) == pytest.approx(0.94429, abs=1e-4)
        assert exact_coverage(20, 0.3) == pytest.approx(0.97522, abs=1e-4)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            wilson_interval(0, 0)
        with pytest.raises(ValueError):
            wilson_interval(-1, 4)
        with pytest.raises(ValueError):
            wilson_interval(5, 4)
        with pytest.raises(ValueError):
            wilson_interval(1, 4, z=0.0)


class TestLoginFrequencies:
    def test_denominator_is_actor_total_across_apps(self):
        events = [
            make_event("u1", "mail"),
            make_event("u1", "mail"),
            make_event("u1", "docs"),
            make_event("u1", "docs", Outcome.FAILURE),
        ]
        rows = {r.app_id: r for r in login_frequencies(events)}
        assert rows["mail"].successes == 2
        assert rows["docs"].successes == 1
        assert rows["mail"].total == 4
        assert rows["docs"].total == 4

    def test_failures_count_toward_total_only(self):
        events = [make_event("u1", "mail", Outcome.FAILURE)] * 3
        rows = login_frequencies(events)
        assert len(rows) == 1
        assert rows[0].successes == 0
        assert rows[0].total == 3

    def test_empty_app_id_feeds_denominator(self):
        events = [make_event("u1", "mail"), make_event("u1", "")]
        rows = login_frequencies(events)
        assert len(rows) == 1
        assert rows[0].total == 2

    def test_rows_sorted_by_actor_then_app(self):
        events = [
            make_event("u2", "b"),
            make_event("u1", "z"),
            make_event("u1", "a"),
            make_event("u2", "a"),
        ]
        keys = [(r.actor_id, r.app_id) for r in login_frequencies(events)]
        assert keys == [("u1", "a"), ("u1", "z"), ("u2", "a"), ("u2", "b")]

    def test_interval_matches_wilson(self):
        events = [make_event("u1", "mail")] + [make_event("u1", "docs")] * 3
        rows = {r.app_id: r for r in login_frequencies(events)}
        low, high = wilson_interval(1, 4)
        assert rows["mail"].interval_low == pytest.approx(low)
        assert rows["mail"].interval_high == pytest.approx(high)
        assert rows["mail"].interval_mean == pytest.approx((low + high) / 2)


class TestSuperset:
    def test_threshold_splits_apps(self):
        # 30/60 successes has interval mean 0.5; 0/60 has mean ~0.03
        frequent = [make_event("u1", "mail")] * 30
        frequent += [make_event("u1", "docs", Outcome.FAILURE)] * 30
        rows = login_frequencies(frequent)
        superset = build_superset(rows, threshold=0.1)
        assert superset.apps_for("u1") == frozenset({"mail"})

    def test_higher_threshold_never_adds_apps(self):
        events = [make_event("u1", a) for a in ("mail", "docs", "wiki")] * 2
        events += [make_event("u1", "mail")] * 10
        rows = login_frequencies(events)
        previous = None
        for threshold in (0.05, 0.1, 0.3, 0.6, 0.9):
            apps = build_superset(rows, threshold=threshold).apps_for("u1")
            if previous is not None:
                assert apps <= previous
            previous = apps

    def test_actor_with_no_passing_apps_keeps_empty_profile(self):
        events = [make_event("u1", "rare", Outcome.FAILURE)] * 30
        superset = build_superset(login_frequencies(events))
        assert superset.actors() == ["u1"]
        assert superset.apps_for("u1") == frozenset()
        # profiled actor with unknown app: 1; unprofiled actor: also 1
        assert superset.known_app("u1", "rare") == 1
        assert superset.known_app("ghost", "anything") == 1

    def test_known_app_indicator(self):
        superset = AppSuperset({"u1": ["mail", "docs"]})
        assert superset.known_app("u1", "mail") == 0
        assert superset.known_app("u1", "docs") == 0
        assert superset.known_app("u1", "wiki") == 1
        assert superset.known_app("u2", "mail") == 1

    def test_jsonl_round_trip(self, tmp_path):
        superset = AppSuperset({"u2": ["b", "a"], "u1": [], "u3": ["only"]})
        path = tmp_path / "superset.jsonl"
        superset.to_jsonl(path)
        lines = path.read_text().splitlines()
        assert [json.loads(line) for line in lines] == [
            {"actor_id": "u1", "apps": []},
            {"actor_id": "u2", "apps": ["a", "b"]},
            {"actor_id": "u3", "apps": ["only"]},
        ]
        assert lines[0].startswith('{"actor_id": "u1"')

    def test_build_from_explicit_rows(self):
        rows = [
            AppFrequency("u1", "mail", 5, 10, 0.2, 0.8, 0.5),
            AppFrequency("u1", "wiki", 0, 10, 0.0, 0.05, 0.025),
        ]
        superset = build_superset(rows, threshold=0.1)
        assert superset.apps_for("u1") == frozenset({"mail"})
