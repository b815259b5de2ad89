"""Geohashing and spherical geometry helpers.

Geohash here is the classic base32 Z-order encoding: longitude and latitude
are bisected alternately starting with longitude, five bits per output
character. Precision is measured in output characters, 1 to 12; three
characters give a cell of 1.40625 degrees per side, five characters roughly
5 km per side.

The encoder does not bisect. It finds each axis's cell number by arithmetic,
``int((lon + 180) / width)``, and then compares the coordinate once with the
exact lower edge of that cell. Up to 12 characters (30 bits per axis) the
width ``w``, every ``k * w`` and every edge ``low + k * w`` are float64s
exactly. Rounding is monotonic, so ``x >= low + k * w`` gives
``fl(x - low) >= k * w`` and then ``fl(fl(x - low) / w) >= k``: the
arithmetic never puts a coordinate in a cell below its own. It can put one
a cell too high, when ``x - low`` rounds up onto an edge (``x`` a tiny bit
below ``0.0``, say), and the one comparison moves it back down. The cell is
then the one the bisection reaches. The two cell numbers are interleaved
through a 256-entry bit-spread table.

``geohash_codes`` does the same arithmetic, edge check included, for whole
numpy arrays of coordinates, and gives each geohash as an int64 code of its
``5 * precision`` bits; ``geohash_text`` spells a code.

Distances are great-circle miles on a sphere of radius 3958.8 statute miles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GEOHASH_ALPHABET = "0123456789bcdefghjkmnpqrstuvwxyz"
_CHAR_TO_BITS = {char: index for index, char in enumerate(GEOHASH_ALPHABET)}

EARTH_RADIUS_MILES = 3958.8

# The standard geohash maximum. At 12 characters each axis has 30 bits, and
# every cell edge, -180 + k * 360 / 2**30 or -90 + k * 180 / 2**30, is a
# float64 exactly.
MAX_GEOHASH_PRECISION = 12


@dataclass(frozen=True)
class BoundingBox:
    """Rectangle in degrees decoded from a geohash."""

    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float

    def contains(self, latitude: float, longitude: float) -> bool:
        return (
            self.lat_min <= latitude < self.lat_max
            and self.lon_min <= longitude < self.lon_max
        )

    @property
    def lat_span(self) -> float:
        return self.lat_max - self.lat_min

    @property
    def lon_span(self) -> float:
        return self.lon_max - self.lon_min


def _spread_byte(value: int) -> int:
    """``value``'s bit i moved to bit 2i, for an 8-bit ``value``."""
    return sum(((value >> bit) & 1) << (2 * bit) for bit in range(8))


_SPREAD = tuple(_spread_byte(value) for value in range(256))

# Two geohash characters per 10-bit value.
_PAIRS = tuple(
    GEOHASH_ALPHABET[value >> 5] + GEOHASH_ALPHABET[value & 31] for value in range(1024)
)


def _spread(cell: int) -> int:
    """``cell``'s bit i moved to bit 2i, for a cell number of up to 32 bits."""
    return (
        _SPREAD[cell & 255]
        | _SPREAD[(cell >> 8) & 255] << 16
        | _SPREAD[(cell >> 16) & 255] << 32
        | _SPREAD[cell >> 24] << 48
    )


def _layout(precision: int) -> tuple:
    """How :func:`geohash_encode` builds a geohash of ``precision`` characters.

    Per axis: the cell width and the last cell number. Longitude takes the
    first of every two bits, so it has the extra bit of an odd bit count,
    and the last bit is latitude's exactly when the bit count is even: hence
    the shift of each axis's spread bits. The characters are read off the
    interleaved code as one leading character (odd precision) or pair, then
    pairs.
    """
    bits = 5 * precision
    lon_bits, lat_bits = (bits + 1) // 2, bits // 2
    lon_shift = 1 - bits % 2
    lead_table, lead_shift = (
        (GEOHASH_ALPHABET, bits - 5) if precision % 2 else (_PAIRS, bits - 10)
    )
    return (
        360.0 / (1 << lon_bits),
        (1 << lon_bits) - 1,
        lon_shift,
        180.0 / (1 << lat_bits),
        (1 << lat_bits) - 1,
        1 - lon_shift,
        lead_table,
        lead_shift,
        tuple(range(lead_shift - 10, -1, -10)),
    )


_LAYOUTS = {
    precision: _layout(precision) for precision in range(1, MAX_GEOHASH_PRECISION + 1)
}


def geohash_encode(latitude: float, longitude: float, precision: int = 3) -> str:
    """Encode a coordinate to a geohash of ``precision`` characters.

    Args:
        latitude: degrees in [-90, 90].
        longitude: degrees in [-180, 180].
        precision: number of output characters, 1..12.

    Returns:
        The geohash string; its decoded bounding box contains the input point.

    Raises:
        ValueError: coordinate or precision out of range.
    """
    layout = _LAYOUTS.get(precision)
    if layout is None:
        raise ValueError(
            f"precision must be in 1..{MAX_GEOHASH_PRECISION}, got {precision}"
        )
    if not -90.0 <= latitude <= 90.0:
        raise ValueError(f"latitude out of range: {latitude}")
    if not -180.0 <= longitude <= 180.0:
        raise ValueError(f"longitude out of range: {longitude}")
    lon_width, lon_top, lon_shift, lat_width, lat_top, lat_shift = layout[:6]

    # The arithmetic can round up across a cell edge, never down (see the
    # module docstring), so one comparison with the exact lower edge puts
    # the cell right. The top edge (180 or 90) belongs to the last cell.
    lon_cell = int((longitude + 180.0) / lon_width)
    if longitude < -180.0 + lon_cell * lon_width:
        lon_cell -= 1
    if lon_cell > lon_top:
        lon_cell = lon_top
    lat_cell = int((latitude + 90.0) / lat_width)
    if latitude < -90.0 + lat_cell * lat_width:
        lat_cell -= 1
    if lat_cell > lat_top:
        lat_cell = lat_top

    if lon_top < 256:  # one byte per axis: precision 3 or less
        code = _SPREAD[lon_cell] << lon_shift | _SPREAD[lat_cell] << lat_shift
    else:
        code = _spread(lon_cell) << lon_shift | _spread(lat_cell) << lat_shift
    return geohash_text(code, precision)


def geohash_text(code: int, precision: int) -> str:
    """Spell a geohash code of ``precision`` characters: its ``5 * precision``
    bits, first bit highest, as :func:`geohash_codes` gives them."""
    lead_table, lead_shift, pair_shifts = _LAYOUTS[precision][6:]
    text = lead_table[code >> lead_shift]
    for shift in pair_shifts:
        text += _PAIRS[(code >> shift) & 1023]
    return text


_SPREAD_ARRAY = np.array(_SPREAD, dtype=np.int64)


def _axis_codes(values: np.ndarray, low: float, width: float, top: int, shift: int) -> np.ndarray:
    """One axis's share of each code: the cell number of each of ``values``,
    found as :func:`geohash_encode` finds it, with its bits spread and shifted."""
    cells = ((values - low) / width).astype(np.int64)
    cells -= values < low + cells * width
    np.minimum(cells, top, out=cells)
    spread = _SPREAD_ARRAY[cells & 255]
    for byte in range(1, (top.bit_length() + 7) // 8):  # the bytes above the first
        spread |= _SPREAD_ARRAY[(cells >> (8 * byte)) & 255] << (16 * byte)
    return spread << shift if shift else spread


def geohash_codes(
    latitudes: np.ndarray, longitudes: np.ndarray, precision: int = 3
) -> np.ndarray:
    """:func:`geohash_encode` of each point of two arrays, as int64 codes.

    A code holds the geohash's ``5 * precision`` bits, first bit highest;
    :func:`geohash_text` spells it. The cells are found by the same
    arithmetic and edge correction as :func:`geohash_encode`, a few numpy
    steps per axis for the whole batch, so each code spells the geohash
    that :func:`geohash_encode` gives for its point.

    Raises:
        ValueError: a coordinate (NaN included) or the precision is out of
            range.
    """
    layout = _LAYOUTS.get(precision)
    if layout is None:
        raise ValueError(
            f"precision must be in 1..{MAX_GEOHASH_PRECISION}, got {precision}"
        )
    latitudes = np.asarray(latitudes, dtype=np.float64)
    longitudes = np.asarray(longitudes, dtype=np.float64)
    # min and max are NaN when any value is, and NaN fails both comparisons
    if latitudes.size and not (latitudes.min() >= -90.0 and latitudes.max() <= 90.0):
        raise ValueError("latitude out of range")
    if longitudes.size and not (longitudes.min() >= -180.0 and longitudes.max() <= 180.0):
        raise ValueError("longitude out of range")
    lon_width, lon_top, lon_shift, lat_width, lat_top, lat_shift = layout[:6]
    code = _axis_codes(longitudes, -180.0, lon_width, lon_top, lon_shift)
    code |= _axis_codes(latitudes, -90.0, lat_width, lat_top, lat_shift)
    return code


def geohash_decode(code: str) -> BoundingBox:
    """Decode a geohash to its bounding box.

    Raises:
        ValueError: empty code or character outside the geohash alphabet.
    """
    if not code:
        raise ValueError("geohash must be non-empty")
    lat_lo, lat_hi = -90.0, 90.0
    lon_lo, lon_hi = -180.0, 180.0
    even = True
    for char in code:
        try:
            value = _CHAR_TO_BITS[char]
        except KeyError:
            raise ValueError(f"invalid geohash character: {char!r}") from None
        for shift in range(4, -1, -1):
            bit = (value >> shift) & 1
            if even:
                mid = (lon_lo + lon_hi) / 2
                if bit:
                    lon_lo = mid
                else:
                    lon_hi = mid
            else:
                mid = (lat_lo + lat_hi) / 2
                if bit:
                    lat_lo = mid
                else:
                    lat_hi = mid
            even = not even
    return BoundingBox(lat_min=lat_lo, lat_max=lat_hi, lon_min=lon_lo, lon_max=lon_hi)


def haversine_miles(
    lat1: float, lon1: float, lat2: float, lon2: float
) -> float:
    """Great-circle distance in statute miles between two coordinates."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlambda = math.radians(lon2 - lon1)
    a = (
        math.sin(dphi / 2) ** 2
        + math.cos(phi1) * math.cos(phi2) * math.sin(dlambda / 2) ** 2
    )
    return 2 * EARTH_RADIUS_MILES * math.asin(min(1.0, math.sqrt(a)))


def displace(
    latitude: float, longitude: float, distance_miles: float, bearing_degrees: float
) -> tuple[float, float]:
    """Destination point after moving along a great circle.

    Args:
        latitude, longitude: start coordinate in degrees.
        distance_miles: great-circle distance to travel, >= 0.
        bearing_degrees: initial bearing clockwise from north.

    Returns:
        (latitude, longitude) of the destination, longitude normalized to
        [-180, 180].
    """
    if distance_miles < 0:
        raise ValueError(f"distance must be >= 0, got {distance_miles}")
    delta = distance_miles / EARTH_RADIUS_MILES
    theta = math.radians(bearing_degrees)
    phi1 = math.radians(latitude)
    lambda1 = math.radians(longitude)

    sin_phi2 = math.sin(phi1) * math.cos(delta) + math.cos(phi1) * math.sin(
        delta
    ) * math.cos(theta)
    sin_phi2 = max(-1.0, min(1.0, sin_phi2))
    phi2 = math.asin(sin_phi2)
    lambda2 = lambda1 + math.atan2(
        math.sin(theta) * math.sin(delta) * math.cos(phi1),
        math.cos(delta) - math.sin(phi1) * sin_phi2,
    )

    lat2 = math.degrees(phi2)
    lon2 = math.degrees(lambda2)
    lon2 = (lon2 + 180.0) % 360.0 - 180.0
    lat2 = max(-90.0, min(90.0, lat2))
    return lat2, lon2
