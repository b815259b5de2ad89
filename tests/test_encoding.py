"""Tests for vocabularies, embedding sizing, the encoder and event encoding."""

from __future__ import annotations

from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loginwatch.apps import AppSuperset
from loginwatch.encoding import (
    FEATURE_ORDER,
    MAX_EMBEDDING_DIM,
    EncoderState,
    TimeMode,
    build_event_indices,
    build_index,
    embedding_dim,
    encode_columns,
    encode_event,
    geohash_value,
    observed_hours,
)
from loginwatch.events import LogEvent, Outcome


def make_event(
    lat: float | None = 40.0,
    lon: float | None = -74.0,
    *,
    actor: str = "u1",
    ts: datetime | None = None,
    app: str = "mail",
    outcome: Outcome = Outcome.SUCCESS,
    os_name: str = "Mac OS X",
    device: str = "Computer",
) -> LogEvent:
    return LogEvent(
        actor_id=actor,
        timestamp=ts or datetime(2023, 6, 7, 14, 30, 0, tzinfo=timezone.utc),
        event_type="user.session.start",
        outcome=outcome,
        latitude=lat,
        longitude=lon,
        app_id=app,
        client_os=os_name,
        client_device=device,
    )


class TestStringIndex:
    """``build_index``: a plain dict from each distinct value to 1..m."""

    def test_indices_start_at_one_in_byte_order(self):
        index = build_index(["beta", "alpha", "beta", "gamma"])
        assert index == {"alpha": 1, "beta": 2, "gamma": 3}
        assert list(index) == ["alpha", "beta", "gamma"]

    def test_unseen_maps_to_zero(self):
        index = build_index(["a"])
        assert index.get("never", 0) == 0
        assert index.get("", 0) == 0

    def test_byte_order_puts_uppercase_first(self):
        # "Z" (0x5a) sorts before "a" (0x61) in UTF-8 bytes
        index = build_index(["a", "Z"])
        assert index["Z"] == 1
        assert index["a"] == 2

    def test_empty_string_is_a_real_level(self):
        # missing locations encode as "" and must stay distinguishable from OOV
        index = build_index(["", "gbs"])
        assert index[""] == 1
        assert index["gbs"] == 2


class TestEmbeddingDim:
    def test_matches_rule_for_all_small_vocabs(self):
        for m in range(1, 120):
            assert embedding_dim(m) == min(m // 2 + 1, MAX_EMBEDDING_DIM)

    def test_specific_values(self):
        assert embedding_dim(1) == 1
        assert embedding_dim(7) == 4
        assert embedding_dim(24) == 13
        assert embedding_dim(98) == 50
        assert embedding_dim(99) == 50
        assert embedding_dim(5000) == 50

    def test_rejects_empty_vocab(self):
        with pytest.raises(ValueError):
            embedding_dim(0)


def make_encoder(
    events, time_mode=TimeMode.RAW, active_hours=frozenset(), known_apps=("mail",)
) -> EncoderState:
    """An encoder with vocabularies from ``events`` at precision 3, in which
    actor u1 knows ``known_apps``."""
    return EncoderState(
        geohash_precision=3,
        time_mode=time_mode,
        active_hours=frozenset(active_hours),
        indices=build_event_indices(events),
        superset=AppSuperset({"u1": known_apps}),
    )


def encode(event, encoder) -> dict[str, int]:
    """``encode_event``'s row, keyed by feature name."""
    return dict(zip(FEATURE_ORDER, encode_event(event, encoder)))


class TestEncodeEvent:
    def test_raw_time_mode_passthrough(self):
        event = make_event(ts=datetime(2023, 6, 7, 14, 30, 0, tzinfo=timezone.utc))
        row = encode_event(event, make_encoder([event]))
        assert len(row) == len(FEATURE_ORDER)
        assert all(type(value) is int for value in row)
        encoded = dict(zip(FEATURE_ORDER, row))
        # 2023-06-07 is a Wednesday: weekday 4 with Sunday = 1; hour 14 -> 15
        assert encoded["event_hour"] == 15
        assert encoded["weekday"] == 4
        assert encoded["known_app"] == 0

    def test_string_features_hit_their_tables(self):
        event = make_event()
        encoder = make_encoder([event], known_apps=())
        encoded = encode(event, encoder)
        assert encoded["geohash"] == encoder.indices["geohash"][geohash_value(event, 3)]
        assert encoded["app_id"] == 1
        assert encoded["outcome"] == 1
        assert encoded["client_os"] == 1
        assert encoded["client_device"] == 1
        assert encoded["known_app"] == 1

    def test_unseen_values_land_on_oov(self):
        train = make_event(app="mail", os_name="Mac OS X")
        val = make_event(lat=-33.9, lon=151.2, app="exotic", os_name="BeOS")
        encoded = encode(val, make_encoder([train]))
        assert encoded["geohash"] == 0
        assert encoded["app_id"] == 0
        assert encoded["client_os"] == 0

    def test_coarse_mode_folds_to_binary(self):
        # Saturday 2023-06-10, hour 22 -> event_hour 23
        weekend = make_event(ts=datetime(2023, 6, 10, 22, 0, 0, tzinfo=timezone.utc))
        encoded = encode(weekend, make_encoder([weekend], TimeMode.COARSE, {10, 11}))
        assert encoded["weekday"] == 0
        assert encoded["event_hour"] == 0
        in_hours = encode(weekend, make_encoder([weekend], TimeMode.COARSE, {23}))
        assert in_hours["event_hour"] == 1

    def test_coarse_weekday_one_on_weekdays(self):
        monday = make_event(ts=datetime(2023, 6, 12, 9, 0, 0, tzinfo=timezone.utc))
        encoded = encode(monday, make_encoder([monday], TimeMode.COARSE, {10}))
        assert encoded["weekday"] == 1

    def test_known_app_bit_comes_from_the_superset(self):
        encoder = make_encoder([make_event()], known_apps=("mail",))
        assert encode(make_event(app="mail"), encoder)["known_app"] == 0
        assert encode(make_event(app="docs"), encoder)["known_app"] == 1
        # an actor without a profile knows no app
        assert encode(make_event(actor="u2", app="mail"), encoder)["known_app"] == 1

    def test_missing_location_encodes_empty_cell(self):
        event = make_event(lat=None, lon=None)
        assert geohash_value(event, 3) == ""
        encoder = make_encoder([event])
        assert encode(event, encoder)["geohash"] == encoder.indices["geohash"][""]

    def test_indices_within_feature_sizes(self):
        rng = np.random.default_rng(5)
        apps = ["mail", "docs", "wiki", "crm"]
        systems = ["Mac OS X", "Windows 10", "Linux"]
        events = [
            make_event(
                lat=float(rng.uniform(-80, 80)),
                lon=float(rng.uniform(-179, 179)),
                ts=datetime(2023, 6, 1, int(rng.integers(0, 24)), 0, 0, tzinfo=timezone.utc),
                app=str(rng.choice(apps)),
                os_name=str(rng.choice(systems)),
                outcome=Outcome.SUCCESS if rng.random() < 0.9 else Outcome.FAILURE,
            )
            for _ in range(200)
        ]
        encoder = make_encoder(events, known_apps=("mail", "docs"))
        sizes = encoder.feature_sizes()
        for event in events:
            row = encode_event(event, encoder)
            for name, value in zip(FEATURE_ORDER, row):
                assert 0 <= value <= sizes[name], name

    def test_feature_indices_order(self):
        event = make_event()
        values = encode_event(event, make_encoder([event], known_apps=()))
        assert len(values) == len(FEATURE_ORDER)
        assert values[FEATURE_ORDER.index("known_app")] == 1


class TestFeatureSizes:
    def test_raw_sizes(self):
        events = [make_event(app="mail"), make_event(app="docs", outcome=Outcome.FAILURE)]
        sizes = make_encoder(events).feature_sizes()
        assert sizes["event_hour"] == 24
        assert sizes["weekday"] == 7
        assert sizes["known_app"] == 1
        assert sizes["app_id"] == 2
        assert sizes["outcome"] == 2
        assert set(sizes) == set(FEATURE_ORDER)

    def test_coarse_sizes(self):
        events = [make_event()]
        sizes = make_encoder(events, TimeMode.COARSE).feature_sizes()
        assert sizes["event_hour"] == 1
        assert sizes["weekday"] == 1


class TestObservedHours:
    def test_collects_event_hours(self):
        events = [
            make_event(ts=datetime(2023, 6, 7, h, 0, 0, tzinfo=timezone.utc))
            for h in (8, 9, 9, 17)
        ]
        assert observed_hours(events) == frozenset({9, 10, 18})


# Points that repeat across a batch, so vocabularies hold some of them; the
# axis ends; and any point in range.
POINTS = st.sampled_from([(40.0, -74.0), (51.5, -0.1), (-33.9, 151.2), (90.0, 180.0),
                          (-90.0, -180.0), (0.0, -0.0)]) | st.tuples(
    st.floats(-90.0, 90.0), st.floats(-180.0, 180.0)
)
# UTC, fixed offsets (an offset moves the hour and can move the weekday) and
# naive instants, which both encoders read as local time.
TIMESTAMPS = st.datetimes(
    min_value=datetime(1971, 1, 1),
    max_value=datetime(2100, 1, 1),
    timezones=st.none()
    | st.just(timezone.utc)
    | st.integers(-1439, 1439).map(lambda m: timezone(timedelta(minutes=m))),
)
VALUES = st.sampled_from(["mail", "docs", "Mac OS X", "", "never-seen"])
EVENTS = st.builds(
    lambda point, ts, app, outcome, os_name, device: make_event(
        *(point or (None, None)), ts=ts, app=app, outcome=outcome, os_name=os_name, device=device
    ),
    st.none() | POINTS,
    TIMESTAMPS,
    VALUES,
    st.sampled_from(list(Outcome)),
    VALUES,
    VALUES,
)


class TestEncodeColumns:
    """``encode_columns`` is ``encode_event`` row for row."""

    @settings(max_examples=150)
    @given(
        train=st.lists(EVENTS, min_size=1, max_size=12),
        live=st.lists(EVENTS, max_size=40),
        precision=st.integers(1, 12),
        time_mode=st.sampled_from(list(TimeMode)),
        active_hours=st.frozensets(st.integers(1, 24)),
        superset=st.sampled_from([{"u1": ["mail"]}, {"u1": []}, {"u2": ["mail", "docs"]}, {}]),
    )
    @example(  # a missing location among located ones, an actor without a profile
        train=[make_event(), make_event(None, None)],
        live=[make_event(None, None), make_event(), make_event(1.0, 2.0, app="docs")],
        precision=3,
        time_mode=TimeMode.COARSE,
        active_hours=frozenset({15}),
        superset={},
    )
    def test_equals_encode_event_row_for_row(
        self, train, live, precision, time_mode, active_hours, superset
    ):
        encoder = EncoderState(
            geohash_precision=precision,
            time_mode=time_mode,
            active_hours=active_hours,
            indices=build_event_indices(train, precision),
            superset=AppSuperset(superset),
        )
        # the vocabulary holds each training event's scalar geohash level
        assert encoder.indices["geohash"] == build_index(
            geohash_value(event, precision) for event in train
        )
        for events in (train, live):
            rows = encode_columns(events, encoder)
            assert rows.dtype == np.int64
            assert rows.shape == (len(events), len(FEATURE_ORDER))
            assert [tuple(row) for row in rows.tolist()] == [
                encode_event(event, encoder) for event in events
            ]
