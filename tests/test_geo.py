import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geobox import (
    EARTH_RADIUS_KM,
    BoundingBox,
    GeoInfo,
    GeoPoint,
    LocationRecord,
    Mention,
    Prediction,
    bbox_area_km2,
    bbox_centroid,
    bbox_intersection,
    format_bbox,
    format_coord,
    format_point,
    haversine_km,
)
from geobox.parsing import parse_bbox, parse_point
from mc_oracle import mc_box_area_km2

# --- distance anchors ------------------------------------------------------


def test_quarter_great_circle():
    # pole to equator and 90 degrees along the equator are both pi*R/2
    assert haversine_km(GeoPoint(0, 0), GeoPoint(90, 0)) == pytest.approx(
        10007.557221017962, abs=1e-6
    )
    assert haversine_km(GeoPoint(0, 0), GeoPoint(0, 90)) == pytest.approx(
        10007.557221017962, abs=1e-6
    )


def test_antipodal_distance():
    assert haversine_km(GeoPoint(0, 0), GeoPoint(0, 180)) == pytest.approx(
        20015.115, abs=0.001
    )
    assert haversine_km(GeoPoint(90, 0), GeoPoint(-90, 0)) == pytest.approx(
        20015.115, abs=0.001
    )


def test_near_antipodal_distances_add_up_along_the_equator():
    a = GeoPoint(lat=0.0, lon=180.0)
    b = GeoPoint(lat=0.0, lon=-1.0)
    c = GeoPoint(lat=0.0, lon=-1e-05)
    assert haversine_km(a, c) == pytest.approx(haversine_km(a, b) + haversine_km(b, c), abs=1e-6)


def test_one_degree_at_equator():
    assert haversine_km(GeoPoint(0, 0), GeoPoint(0, 1)) == pytest.approx(111.195, abs=0.001)


def test_zero_distance():
    p = GeoPoint(48.858, 2.2959)
    assert haversine_km(p, p) == 0.0


# --- area anchors -----------------------------------------------------------


def test_full_sphere_area():
    full = BoundingBox(-180, -90, 180, 90)
    assert bbox_area_km2(full) == pytest.approx(4 * math.pi * EARTH_RADIUS_KM**2, rel=1e-12)


def test_reference_box_area():
    # 10x10 degree box at the equator
    assert bbox_area_km2(BoundingBox(0, 0, 10, 10)) == pytest.approx(1.2302e6, rel=1e-3)


def test_degenerate_boxes_have_zero_area():
    assert bbox_area_km2(BoundingBox(10, 20, 10, 25)) == 0.0
    assert bbox_area_km2(BoundingBox(10, 20, 15, 20)) == 0.0
    assert bbox_area_km2(BoundingBox(10, 20, 10, 20)) == 0.0


def test_area_matches_mc_oracle():
    # 100 random boxes, each within 0.1% of the stratified MC estimate
    rng = np.random.default_rng(20260819)
    for i in range(100):
        lon = np.sort(rng.uniform(-180.0, 180.0, 2))
        lat = np.sort(rng.uniform(-90.0, 90.0, 2))
        if lon[1] - lon[0] < 0.5:
            lon[1] = lon[0] + 0.5
        if lat[1] - lat[0] < 0.5:
            lat[1] = min(90.0, lat[0] + 0.5)
        box = BoundingBox(lon[0], lat[0], lon[1], lat[1])
        analytic = bbox_area_km2(box)
        estimate = mc_box_area_km2(box, n=200_000, seed=1000 + i)
        assert estimate == pytest.approx(analytic, rel=1e-3)


# --- validation --------------------------------------------------------------


@pytest.mark.parametrize("lat,lon", [(91, 0), (-90.1, 0), (0, 181), (0, -180.5)])
def test_point_range_rejected(lat, lon):
    with pytest.raises(ValueError):
        GeoPoint(lat, lon)


@pytest.mark.parametrize("lat,lon", [(float("nan"), 0), (0, float("inf"))])
def test_point_nonfinite_rejected(lat, lon):
    with pytest.raises(ValueError):
        GeoPoint(lat, lon)


def test_box_order_rejected():
    with pytest.raises(ValueError):
        BoundingBox(10, 0, 5, 5)
    with pytest.raises(ValueError):
        BoundingBox(0, 10, 5, 5)


def test_box_range_rejected():
    with pytest.raises(ValueError):
        BoundingBox(-190, 0, 0, 10)
    with pytest.raises(ValueError):
        BoundingBox(0, 0, 10, 95)
    with pytest.raises(ValueError):
        BoundingBox(0, float("nan"), 10, 10)


_NAN = float("nan")
_INF = float("inf")


@pytest.mark.parametrize(
    "args,message",
    [
        ((_NAN, 0.0, 1.0, 1.0), "lon_min must be finite, got nan"),
        ((0.0, _NAN, 1.0, 1.0), "lat_min must be finite, got nan"),
        ((0.0, 0.0, _NAN, 1.0), "lon_max must be finite, got nan"),
        ((0.0, 0.0, 1.0, _NAN), "lat_max must be finite, got nan"),
        ((-_INF, 0.0, 1.0, 1.0), "lon_min must be finite, got -inf"),
        ((0.0, -_INF, 1.0, 1.0), "lat_min must be finite, got -inf"),
        ((0.0, 0.0, _INF, 1.0), "lon_max must be finite, got inf"),
        ((0.0, 0.0, 1.0, _INF), "lat_max must be finite, got inf"),
        # a non-finite value is reported before an out-of-range one
        ((-190.0, 0.0, 1.0, _NAN), "lat_max must be finite, got nan"),
        ((-180.5, 0.0, 1.0, 1.0), "longitude out of range [-180, 180]: (-180.5, 1.0)"),
        ((181.0, 0.0, 182.0, 1.0), "longitude out of range [-180, 180]: (181.0, 182.0)"),
        ((0.0, 0.0, 180.5, 1.0), "longitude out of range [-180, 180]: (0.0, 180.5)"),
        ((0.0, -90.5, 1.0, 1.0), "latitude out of range [-90, 90]: (-90.5, 1.0)"),
        ((0.0, -95.0, 1.0, -91.0), "latitude out of range [-90, 90]: (-95.0, -91.0)"),
        ((0.0, 0.0, 1.0, 90.5), "latitude out of range [-90, 90]: (0.0, 90.5)"),
        # range is checked before order
        ((2.0, 0.0, 1.0, 95.0), "latitude out of range [-90, 90]: (0.0, 95.0)"),
        (
            (2.0, 0.0, 1.0, 1.0),
            "lon_min > lon_max (2.0 > 1.0); antimeridian-wrapping boxes are not representable",
        ),
        ((0.0, 2.0, 1.0, 1.0), "lat_min > lat_max (2.0 > 1.0)"),
    ],
)
def test_box_rejection_messages(args, message):
    with pytest.raises(ValueError) as info:
        BoundingBox(*args)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "lat,lon,message",
    [
        (_NAN, 0.0, "lat must be finite, got nan"),
        (0.0, _NAN, "lon must be finite, got nan"),
        (_INF, 0.0, "lat must be finite, got inf"),
        (0.0, -_INF, "lon must be finite, got -inf"),
        (95.0, _INF, "lon must be finite, got inf"),
        (90.5, 0.0, "latitude out of range [-90, 90]: 90.5"),
        (-90.5, 0.0, "latitude out of range [-90, 90]: -90.5"),
        (95.0, 190.0, "latitude out of range [-90, 90]: 95.0"),
        (0.0, 180.5, "longitude out of range [-180, 180]: 180.5"),
        (0.0, -180.5, "longitude out of range [-180, 180]: -180.5"),
    ],
)
def test_point_rejection_messages(lat, lon, message):
    with pytest.raises(ValueError) as info:
        GeoPoint(lat, lon)
    assert str(info.value) == message


def _value_instances():
    box = BoundingBox(0.0, 0.0, 1.0, 1.0)
    info = GeoInfo(name="Oman", center=GeoPoint(0.5, 0.5))
    return [
        GeoPoint(0.0, 0.0),
        box,
        info,
        Prediction(record_id="r1", approach="direct", bbox=box),
        Mention(name="Oman", gold=info),
        LocationRecord(record_id="r1", description="Near Oman", gold_bbox=box),
    ]


@pytest.mark.parametrize("value", _value_instances(), ids=lambda v: type(v).__name__)
def test_slotted_value_types_stay_frozen(value):
    assert not hasattr(value, "__dict__")
    field = dataclasses.fields(value)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, field, getattr(value, field))
    # Python 3.11's dataclasses raise TypeError here for a slotted class:
    # its __setattr__ calls super() with the class from before slots were added.
    with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
        value.unknown_attribute = 1


def test_degenerate_box_allowed():
    box = BoundingBox(5, 5, 5, 5)
    assert box.as_tuple() == (5, 5, 5, 5)


def test_contains_is_edge_inclusive():
    box = BoundingBox(0, 0, 10, 10)
    assert box.contains(GeoPoint(0, 0))
    assert box.contains(GeoPoint(10, 10))
    assert box.contains(GeoPoint(5, 5))
    assert not box.contains(GeoPoint(10.0001, 5))
    assert not box.contains(GeoPoint(5, -0.0001))


# --- intersection -------------------------------------------------------------


def test_intersection_basic():
    a = BoundingBox(0, 0, 10, 10)
    b = BoundingBox(5, 5, 15, 15)
    got = bbox_intersection(a, b)
    assert got == BoundingBox(5, 5, 10, 10)


def test_touching_boxes_do_not_intersect():
    a = BoundingBox(0, 0, 10, 10)
    assert bbox_intersection(a, BoundingBox(10, 0, 20, 10)) is None
    assert bbox_intersection(a, BoundingBox(0, 10, 10, 20)) is None
    assert bbox_intersection(a, BoundingBox(10, 10, 20, 20)) is None


def test_disjoint_boxes_do_not_intersect():
    a = BoundingBox(0, 0, 10, 10)
    assert bbox_intersection(a, BoundingBox(20, 20, 30, 30)) is None


def test_intersection_with_self():
    a = BoundingBox(-3.5, 40.0, 2.25, 44.5)
    assert bbox_intersection(a, a) == a


def test_centroid_midpoint():
    c = bbox_centroid(BoundingBox(-10, 20, 30, 40))
    assert c == GeoPoint(lat=30.0, lon=10.0)


# --- hypothesis properties -----------------------------------------------------

_lat = st.floats(min_value=-90.0, max_value=90.0, allow_nan=False).map(lambda v: round(v, 6))
_lon = st.floats(min_value=-180.0, max_value=180.0, allow_nan=False).map(lambda v: round(v, 6))
_point = st.builds(lambda lat, lon: GeoPoint(lat=lat, lon=lon), _lat, _lon)


@st.composite
def _box(draw):
    lon_a, lon_b = sorted((draw(_lon), draw(_lon)))
    lat_a, lat_b = sorted((draw(_lat), draw(_lat)))
    return BoundingBox(lon_a, lat_a, lon_b, lat_b)


@given(_point, _point)
def test_distance_symmetric(a, b):
    assert haversine_km(a, b) == pytest.approx(haversine_km(b, a), abs=1e-9)


@given(_point, _point)
def test_distance_bounds(a, b):
    d = haversine_km(a, b)
    assert 0.0 <= d <= math.pi * EARTH_RADIUS_KM + 1e-9


@settings(max_examples=200)
@given(_point, _point, _point)
def test_triangle_inequality(a, b, c):
    direct = haversine_km(a, c)
    via = haversine_km(a, b) + haversine_km(b, c)
    assert direct <= via + 1e-6


@given(_box(), _box())
def test_intersection_commutes(a, b):
    assert bbox_intersection(a, b) == bbox_intersection(b, a)


@given(_box(), _box())
def test_intersection_never_exceeds_parts(a, b):
    got = bbox_intersection(a, b)
    if got is None:
        return
    area = bbox_area_km2(got)
    assert area <= bbox_area_km2(a) + 1e-6
    assert area <= bbox_area_km2(b) + 1e-6
    assert got.lon_min >= max(a.lon_min, b.lon_min)
    assert got.lon_max <= min(a.lon_max, b.lon_max)


@given(_box())
def test_centroid_inside_box(box):
    assert box.contains(bbox_centroid(box))


@given(_box())
def test_area_nonnegative(box):
    assert bbox_area_km2(box) >= 0.0


# --- canonical rendering ---------------------------------------------------


def test_format_coord_pads_to_three_decimals():
    assert format_coord(57.0) == "57.000"
    assert format_coord(2.29) == "2.290"
    assert format_coord(-13.5) == "-13.500"


def test_format_coord_keeps_longer_fractions():
    assert format_coord(2.2959) == "2.2959"
    assert format_coord(63.002662154702726) == "63.002662154702726"


def test_format_coord_never_uses_exponents():
    assert format_coord(1e-07) == "0.000000100"
    assert format_coord(-5e-05) == "-0.000050000"


def test_format_point_is_lat_lon():
    assert format_point(GeoPoint(lat=48.858, lon=2.2959)) == "(48.858, 2.2959)"


def test_format_bbox_order():
    box = BoundingBox(2.293, 48.857, 2.297, 48.859)
    assert format_bbox(box) == "(2.293, 48.857, 2.297, 48.859)"


@given(_box())
def test_bbox_render_parse_round_trip(box):
    assert parse_bbox(format_bbox(box)) == (box, ())


@given(_point)
def test_point_render_parse_round_trip(point):
    assert parse_point(format_point(point)) == (point, ())
