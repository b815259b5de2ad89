"""Geohash, haversine, and displacement tests."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loginwatch.geo import (
    EARTH_RADIUS_MILES,
    GEOHASH_ALPHABET,
    MAX_GEOHASH_PRECISION,
    displace,
    geohash_codes,
    geohash_decode,
    geohash_encode,
    geohash_text,
    haversine_miles,
)


def oracle_geohash(latitude: float, longitude: float, precision: int) -> str:
    """Independent construction: per-axis bit strings, interleaved afterwards.

    The production encoder walks both axes in one zipper loop; this oracle
    derives each axis separately and only then weaves the bits together, so
    a bookkeeping slip in either implementation shows up as a mismatch.
    """
    total_bits = 5 * precision

    def axis_bits(value, low, high, count):
        bits = []
        for _ in range(count):
            mid = (low + high) / 2
            if value >= mid:
                bits.append(1)
                low = mid
            else:
                bits.append(0)
                high = mid
        return bits

    lon_bits = axis_bits(longitude, -180.0, 180.0, (total_bits + 1) // 2)
    lat_bits = axis_bits(latitude, -90.0, 90.0, total_bits // 2)
    woven = [
        lon_bits[i // 2] if i % 2 == 0 else lat_bits[i // 2]
        for i in range(total_bits)
    ]
    chars = []
    for i in range(precision):
        value = 0
        for bit in woven[5 * i : 5 * i + 5]:
            value = value * 2 + bit
        chars.append(GEOHASH_ALPHABET[value])
    return "".join(chars)


def axis_values(low: float, bits: int):
    """Coordinates on one axis: cell edges of ``bits`` bits and their float
    neighbours, the axis ends and both zeros, and any value in range."""
    cells = 1 << bits
    edges = st.integers(0, cells).map(lambda k: low + k * (-2 * low) / cells)
    nudged = st.tuples(edges, st.sampled_from([-1.0, 0.0, 1.0])).map(
        lambda pair: math.nextafter(pair[0], pair[1] * math.inf) if pair[1] else pair[0]
    )
    specials = st.sampled_from([low, -low, 0.0, -0.0])
    anywhere = st.floats(low, -low)
    return (nudged | specials | anywhere).filter(lambda value: low <= value <= -low)


@st.composite
def geohash_cases(draw):
    precision = draw(st.integers(1, MAX_GEOHASH_PRECISION))
    bits = 5 * precision
    latitude = draw(axis_values(-90.0, bits // 2))
    longitude = draw(axis_values(-180.0, (bits + 1) // 2))
    return latitude, longitude, precision


class TestGeohashEncode:
    def test_alphabet(self):
        assert GEOHASH_ALPHABET == "0123456789bcdefghjkmnpqrstuvwxyz"
        assert len(set(GEOHASH_ALPHABET)) == 32
        for missing in "ailo":
            assert missing not in GEOHASH_ALPHABET

    def test_known_point_eleven_chars(self):
        assert geohash_encode(57.64911, 10.40744, 11) == "u4pruydqqvj"

    def test_origin_one_char(self):
        assert geohash_encode(0.0, 0.0, 1) == "s"

    def test_matches_interleaving_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            lat = float(rng.uniform(-90, 90))
            lon = float(rng.uniform(-180, 180))
            precision = int(rng.integers(1, 13))
            assert geohash_encode(lat, lon, precision) == oracle_geohash(
                lat, lon, precision
            )

    @settings(max_examples=400)
    @given(geohash_cases())
    @example((90.0, 180.0, 12))
    @example((-90.0, -180.0, 12))
    @example((-0.0, -0.0, 5))
    @example((math.nextafter(90.0, 0.0), math.nextafter(180.0, 0.0), 11))
    def test_equals_oracle_on_cell_edges(self, case):
        latitude, longitude, precision = case
        expected = oracle_geohash(latitude, longitude, precision)
        assert geohash_encode(latitude, longitude, precision) == expected
        # the numpy form, for a batch of one and with the point among others
        (code,) = geohash_codes(np.array([latitude]), np.array([longitude]), precision).tolist()
        assert geohash_text(code, precision) == expected
        batch = geohash_codes(
            np.array([0.0, latitude, -90.0]), np.array([0.0, longitude, 180.0]), precision
        )
        assert geohash_text(int(batch[1]), precision) == expected

    def test_prefix_property(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            lat = float(rng.uniform(-90, 90))
            lon = float(rng.uniform(-180, 180))
            long_code = geohash_encode(lat, lon, 9)
            for precision in range(1, 9):
                assert geohash_encode(lat, lon, precision) == long_code[:precision]

    def test_codes_of_a_batch_equal_each_scalar_geohash(self):
        rng = np.random.default_rng(11)
        latitudes = rng.uniform(-90, 90, 300)
        longitudes = rng.uniform(-180, 180, 300)
        for precision in range(1, MAX_GEOHASH_PRECISION + 1):
            codes = geohash_codes(latitudes, longitudes, precision)
            assert codes.dtype == np.int64
            assert [geohash_text(code, precision) for code in codes.tolist()] == [
                geohash_encode(lat, lon, precision)
                for lat, lon in zip(latitudes.tolist(), longitudes.tolist())
            ]
        assert geohash_codes(np.array([]), np.array([]), 5).shape == (0,)

    @pytest.mark.parametrize(
        "latitudes, longitudes, precision, message",
        [
            ([0.0], [0.0], 0, "precision"),
            ([0.0], [0.0], 13, r"1\.\.12"),
            ([0.0, 91.0], [0.0, 0.0], 3, "latitude"),
            ([0.0, math.nan], [0.0, 0.0], 3, "latitude"),
            ([0.0], [-180.5], 3, "longitude"),
            ([0.0], [math.nan], 3, "longitude"),
        ],
    )
    def test_codes_reject_bad_inputs(self, latitudes, longitudes, precision, message):
        with pytest.raises(ValueError, match=message):
            geohash_codes(np.array(latitudes), np.array(longitudes), precision)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            geohash_encode(0, 0, 0)
        with pytest.raises(ValueError, match=r"1\.\.12"):
            geohash_encode(0, 0, 13)  # past the standard maximum
        with pytest.raises(ValueError):
            geohash_encode(91, 0, 3)
        with pytest.raises(ValueError):
            geohash_encode(0, 181, 3)


class TestGeohashDecode:
    def test_single_char_box(self):
        box = geohash_decode("s")
        assert (box.lat_min, box.lat_max) == (0.0, 45.0)
        assert (box.lon_min, box.lon_max) == (0.0, 45.0)

    def test_precision3_lat_span_exact(self):
        # 15 bits split 8 lon / 7 lat: lat cell is 180 / 2^7 degrees.
        box = geohash_decode(geohash_encode(39.1, -84.5, 3))
        assert box.lat_span == 1.40625
        assert box.lon_span == 1.40625

    def test_round_trip_containment(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            lat = float(rng.uniform(-90, 90))
            lon = float(rng.uniform(-180, 180))
            precision = int(rng.integers(1, 10))
            box = geohash_decode(geohash_encode(lat, lon, precision))
            assert box.contains(lat, lon)

    def test_refinement_nests(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            lat = float(rng.uniform(-90, 90))
            lon = float(rng.uniform(-180, 180))
            coarse = geohash_decode(geohash_encode(lat, lon, 3))
            fine = geohash_decode(geohash_encode(lat, lon, 6))
            assert coarse.lat_min <= fine.lat_min
            assert fine.lat_max <= coarse.lat_max
            assert coarse.lon_min <= fine.lon_min
            assert fine.lon_max <= coarse.lon_max

    def test_rejects_bad_codes(self):
        with pytest.raises(ValueError):
            geohash_decode("")
        with pytest.raises(ValueError):
            geohash_decode("abc")  # 'a' is not in the alphabet
        with pytest.raises(ValueError):
            geohash_decode("9vI")


class TestHaversine:
    def test_quarter_circumference(self):
        quarter = math.pi * EARTH_RADIUS_MILES / 2
        assert haversine_miles(0, 0, 0, 90) == pytest.approx(quarter, abs=1e-9)
        assert quarter == pytest.approx(6218, abs=1)

    def test_zero_distance(self):
        assert haversine_miles(37.0, -122.0, 37.0, -122.0) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a = rng.uniform(-90, 90), rng.uniform(-180, 180)
            b = rng.uniform(-90, 90), rng.uniform(-180, 180)
            assert haversine_miles(*a, *b) == pytest.approx(
                haversine_miles(*b, *a), rel=1e-12
            )

    def test_antipodal_is_half_circumference(self):
        half = math.pi * EARTH_RADIUS_MILES
        assert haversine_miles(0, 0, 0, 180) == pytest.approx(half, rel=1e-9)


class TestDisplace:
    def test_round_trip_distance(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            lat = float(rng.uniform(-80, 80))
            lon = float(rng.uniform(-180, 180))
            distance = float(rng.uniform(1, 5000))
            bearing = float(rng.uniform(0, 360))
            lat2, lon2 = displace(lat, lon, distance, bearing)
            back = haversine_miles(lat, lon, lat2, lon2)
            assert back == pytest.approx(distance, rel=1e-3)

    def test_thousand_mile_jump(self):
        lat2, lon2 = displace(40.0, -75.0, 1000.0, 135.0)
        assert haversine_miles(40.0, -75.0, lat2, lon2) == pytest.approx(
            1000.0, abs=1.0
        )

    def test_due_north(self):
        lat2, lon2 = displace(10.0, 20.0, 200.0, 0.0)
        assert lat2 > 10.0
        assert lon2 == pytest.approx(20.0, abs=1e-9)

    def test_longitude_normalized(self):
        lat2, lon2 = displace(0.0, 179.5, 500.0, 90.0)
        assert -180.0 <= lon2 <= 180.0

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            displace(0, 0, -1, 0)
