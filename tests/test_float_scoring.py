"""The float-level scoring code gives the same bits as the formulas it replaced.

Area and distance skip ``math.radians`` and the throwaway ``GeoPoint``
centroids, and the intersection skips ``max``/``min``. Each is checked
here against an in-test copy of the earlier formula with ``==`` on the
float's hex form, so even a sign of zero or a last-bit difference fails.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from geobox import BoundingBox, GeoPoint, Prediction
from geobox.geo import (
    EARTH_RADIUS_KM,
    bbox_area_km2,
    bbox_centroid,
    bbox_intersection,
    haversine_km,
)
from geobox.metrics import distance_error_km

# --- the earlier formulas, copied verbatim ---------------------------------------


def old_area(box):
    dlam = math.radians(box.lon_max - box.lon_min)
    band = math.sin(math.radians(box.lat_max)) - math.sin(math.radians(box.lat_min))
    return EARTH_RADIUS_KM * EARTH_RADIUS_KM * dlam * band


def old_haversine(a, b):
    phi1 = math.radians(a.lat)
    phi2 = math.radians(b.lat)
    dphi = math.radians(b.lat - a.lat)
    dlam = math.radians(b.lon - a.lon)
    h = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    h = min(1.0, max(0.0, h))
    if h <= 0.5:
        rest = 1.0 - h
    else:
        rest = math.sin((phi1 + phi2) / 2.0) ** 2 + (
            math.cos(phi1) * math.cos(phi2) * math.cos(dlam / 2.0) ** 2
        )
    return 2.0 * EARTH_RADIUS_KM * math.atan2(math.sqrt(h), math.sqrt(rest))


def old_intersection(a, b):
    lon_lo = max(a.lon_min, b.lon_min)
    lon_hi = min(a.lon_max, b.lon_max)
    lat_lo = max(a.lat_min, b.lat_min)
    lat_hi = min(a.lat_max, b.lat_max)
    if lon_lo >= lon_hi or lat_lo >= lat_hi:
        return None
    return BoundingBox(lon_lo, lat_lo, lon_hi, lat_hi)


# --- strategies -------------------------------------------------------------------

# Edges worth hitting on purpose: signed zeros, the poles and the antimeridian.
_SPECIAL_LATS = [0.0, -0.0, 90.0, -90.0, 45.0, -45.0, 1e-300, -1e-300]
_SPECIAL_LONS = [0.0, -0.0, 180.0, -180.0, 90.0, -90.0, 1e-300, -1e-300]
_lat = st.one_of(st.sampled_from(_SPECIAL_LATS), st.floats(min_value=-90.0, max_value=90.0))
_lon = st.one_of(st.sampled_from(_SPECIAL_LONS), st.floats(min_value=-180.0, max_value=180.0))


def _bits(value) -> object:
    """A float, box or None in a form where 0.0 and -0.0 differ."""
    if value is None:
        return None
    if isinstance(value, BoundingBox):
        return tuple(v.hex() for v in value.as_tuple())
    return value.hex()


@st.composite
def _box(draw):
    """Any valid box, including degenerate ones (one or both extents zero)."""
    lon_a = draw(_lon)
    lon_b = draw(st.one_of(st.just(lon_a), _lon))
    lat_a = draw(_lat)
    lat_b = draw(st.one_of(st.just(lat_a), _lat))
    if lon_b < lon_a:
        lon_a, lon_b = lon_b, lon_a
    if lat_b < lat_a:
        lat_a, lat_b = lat_b, lat_a
    return BoundingBox(lon_a, lat_a, lon_b, lat_b)


@st.composite
def _antipodal_boxes(draw):
    """Two small boxes whose centroids sit at, or within a hair of, antipodes."""
    lat = draw(st.floats(min_value=-89.0, max_value=89.0))
    lon = draw(st.floats(min_value=-179.0, max_value=0.0))
    half = draw(st.sampled_from([0.0, 1e-9, 1e-4, 0.5]))
    nudge = draw(st.sampled_from([0.0, 1e-12, 1e-7, -1e-7]))
    a = BoundingBox(lon - half, lat - half, lon + half, lat + half)
    lat2 = min(90.0, max(-90.0, -lat + nudge))
    lon2 = min(180.0, lon + 180.0 - nudge)
    b = BoundingBox(
        max(-180.0, lon2 - half), max(-90.0, lat2 - half), min(180.0, lon2 + half), min(90.0, lat2 + half)
    )
    return a, b


@settings(max_examples=500)
@given(_box())
@example(BoundingBox(-0.0, -0.0, 0.0, 0.0))
@example(BoundingBox(-180.0, -90.0, 180.0, 90.0))
def test_area_matches_radians_formula(box):
    assert _bits(bbox_area_km2(box)) == _bits(old_area(box))


@settings(max_examples=500)
@given(_box(), _box())
@example(BoundingBox(-0.0, -0.0, 1.0, 1.0), BoundingBox(0.0, 0.0, 2.0, 2.0))
@example(BoundingBox(0.0, 0.0, 1.0, 1.0), BoundingBox(-0.0, -0.0, 2.0, 2.0))
@example(BoundingBox(-1.0, -1.0, -0.0, -0.0), BoundingBox(-2.0, -2.0, 0.0, 0.0))
def test_intersection_matches_max_min(a, b):
    assert _bits(bbox_intersection(a, b)) == _bits(old_intersection(a, b))


@settings(max_examples=500)
@given(st.one_of(st.tuples(_box(), _box()), _antipodal_boxes()))
@example((BoundingBox(0.0, 0.0, 0.0, 0.0), BoundingBox(180.0, 0.0, 180.0, 0.0)))
@example((BoundingBox(0.0, 90.0, 0.0, 90.0), BoundingBox(0.0, -90.0, 0.0, -90.0)))
@example((BoundingBox(-0.0, -0.0, -0.0, -0.0), BoundingBox(0.0, 0.0, 0.0, 0.0)))
def test_box_distance_matches_centroid_haversine(boxes):
    pred, gold = boxes
    got = distance_error_km(Prediction("r", "a", bbox=pred), gold)
    want = old_haversine(bbox_centroid(pred), bbox_centroid(gold))
    assert _bits(got) == _bits(want)


@settings(max_examples=300)
@given(_lat, _lon, _box())
def test_point_distance_matches_centroid_haversine(lat, lon, gold):
    point = GeoPoint(lat, lon)
    got = distance_error_km(Prediction("r", "a", point=point), gold)
    assert _bits(got) == _bits(old_haversine(point, bbox_centroid(gold)))


@settings(max_examples=300)
@given(_lat, _lon, _lat, _lon)
@example(0.0, 0.0, -0.0, 180.0)
@example(45.0, -90.0, -45.0, 90.0)
def test_haversine_matches_radians_formula(lat1, lon1, lat2, lon2):
    a, b = GeoPoint(lat1, lon1), GeoPoint(lat2, lon2)
    assert _bits(haversine_km(a, b)) == _bits(old_haversine(a, b))

