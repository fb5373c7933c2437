import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import geobox.analysis
import geobox.metrics
from geobox import (
    BoundingBox,
    GeoPoint,
    MetricsReport,
    Prediction,
    aggregate,
    analyze_errors,
    area_precision,
    area_recall,
    bbox_area_km2,
    bbox_centroid,
    bbox_intersection,
    distance_error_km,
    harmonic_f1,
    haversine_km,
)
from geobox.metrics import score_pair
from mc_oracle import mc_overlap_fractions, random_box_pair

# --- per-pair area metrics ---------------------------------------------------


def test_latitude_band_ratio():
    # gold is the lower half (by latitude) of the prediction; the area
    # ratio on the sphere is sin(5)/sin(10), not 0.5
    pred = BoundingBox(0, 0, 10, 10)
    gold = BoundingBox(0, 0, 10, 5)
    expected = math.sin(math.radians(5)) / math.sin(math.radians(10))
    assert expected == pytest.approx(0.50191, abs=1e-5)
    assert area_precision(pred, gold) == pytest.approx(expected, rel=1e-12)
    assert area_recall(pred, gold) == pytest.approx(1.0, rel=1e-12)


def test_identical_boxes():
    box = BoundingBox(-73.983, -33.75, -34.793, 5.27)
    assert area_precision(box, box) == pytest.approx(1.0, rel=1e-12)
    assert area_recall(box, box) == pytest.approx(1.0, rel=1e-12)


def test_disjoint_boxes():
    a = BoundingBox(0, 0, 10, 10)
    b = BoundingBox(20, 20, 30, 30)
    assert area_precision(a, b) == 0.0
    assert area_recall(a, b) == 0.0


def test_touching_boxes_score_zero():
    a = BoundingBox(0, 0, 10, 10)
    b = BoundingBox(10, 0, 20, 10)
    assert area_precision(a, b) == 0.0
    assert area_recall(a, b) == 0.0


def test_longitude_slice_ratios():
    gold = BoundingBox(0, 0, 10, 10)
    sliver = BoundingBox(0, 0, 1, 10)
    assert area_precision(sliver, gold) == pytest.approx(1.0, rel=1e-12)
    assert area_recall(sliver, gold) == pytest.approx(0.1, rel=1e-12)
    wide = BoundingBox(0, 0, 100, 10)
    assert area_precision(wide, gold) == pytest.approx(0.1, rel=1e-12)
    assert area_recall(wide, gold) == pytest.approx(1.0, rel=1e-12)


def test_degenerate_prediction_has_zero_precision():
    gold = BoundingBox(0, 0, 10, 10)
    line = BoundingBox(5, 2, 5, 8)
    assert area_precision(line, gold) == 0.0


def test_degenerate_gold_recall_is_centroid_containment():
    gold = BoundingBox(5, 5, 5, 5)
    assert area_recall(BoundingBox(0, 0, 10, 10), gold) == 1.0
    assert area_recall(BoundingBox(6, 6, 10, 10), gold) == 0.0


def test_precision_of_one_is_recall_of_other():
    a = BoundingBox(0, 0, 10, 10)
    b = BoundingBox(5, 5, 15, 15)
    assert area_precision(a, b) == pytest.approx(area_recall(b, a), rel=1e-12)
    assert area_precision(b, a) == pytest.approx(area_recall(a, b), rel=1e-12)


_lat = st.floats(min_value=-90.0, max_value=90.0, allow_nan=False).map(lambda v: round(v, 4))
_lon = st.floats(min_value=-180.0, max_value=180.0, allow_nan=False).map(lambda v: round(v, 4))


@st.composite
def _solid_box(draw):
    span = st.floats(min_value=0.01, max_value=60.0, allow_nan=False)
    lon_a = draw(st.floats(min_value=-180.0, max_value=119.0, allow_nan=False))
    lat_a = draw(st.floats(min_value=-90.0, max_value=29.0, allow_nan=False))
    lon_b = min(180.0, lon_a + draw(span))
    lat_b = min(90.0, lat_a + draw(span))
    return BoundingBox(round(lon_a, 4), round(lat_a, 4), round(lon_b, 4), round(lat_b, 4))


@given(_solid_box(), _solid_box())
def test_precision_recall_duality(a, b):
    assert area_precision(a, b) == pytest.approx(area_recall(b, a), abs=1e-12)


@given(_solid_box(), _solid_box())
def test_scores_are_fractions(a, b):
    for v in (area_precision(a, b), area_recall(a, b)):
        assert 0.0 <= v <= 1.0 + 1e-12


@st.composite
def _any_box(draw):
    lon_a, lon_b = sorted((draw(_lon), draw(_lon)))
    lat_a, lat_b = sorted((draw(_lat), draw(_lat)))
    return BoundingBox(lon_a, lat_a, lon_b, lat_b)


_box = st.one_of(_solid_box(), _any_box())


def _reference_precision(pred, gold):
    pred_area = bbox_area_km2(pred)
    if pred_area <= 0.0:
        return 0.0
    overlap = bbox_intersection(pred, gold)
    if overlap is None:
        return 0.0
    return bbox_area_km2(overlap) / pred_area


def _reference_recall(pred, gold):
    gold_area = bbox_area_km2(gold)
    if gold_area <= 0.0:
        return 1.0 if pred.contains(bbox_centroid(gold)) else 0.0
    overlap = bbox_intersection(pred, gold)
    if overlap is None:
        return 0.0
    return bbox_area_km2(overlap) / gold_area


@given(_box, _box)
def test_score_pair_matches_reference_formulas(pred, gold):
    # the per-pair formulas written out separately, as the reference for score_pair
    precision, recall, overlaps = score_pair(pred, gold)
    assert (precision, recall) == (_reference_precision(pred, gold), _reference_recall(pred, gold))
    assert overlaps == (bbox_intersection(pred, gold) is not None)


@given(_solid_box(), _solid_box())
def test_score_pair_precision_is_reversed_recall(a, b):
    assert score_pair(a, b)[0] == score_pair(b, a)[1]


def test_scoring_intersects_each_pair_once(monkeypatch):
    calls = []

    def counting_intersection(a, b):
        calls.append((a, b))
        return bbox_intersection(a, b)

    monkeypatch.setattr(geobox.metrics, "bbox_intersection", counting_intersection)
    monkeypatch.setattr(geobox.analysis, "bbox_intersection", counting_intersection)
    golds = {
        "hit": BoundingBox(0, 0, 10, 10),
        "flip": BoundingBox(20, 20, 30, 30),
        "miss": BoundingBox(40, 40, 50, 50),
        "point": BoundingBox(0, 0, 10, 10),
        "none": BoundingBox(0, 0, 10, 10),
    }
    preds = [
        Prediction(record_id="hit", approach="direct", bbox=BoundingBox(5, 5, 15, 15)),
        # the first sign-flip variant (longitudes negated) overlaps gold
        Prediction(record_id="flip", approach="direct", bbox=BoundingBox(-30, 20, -20, 30)),
        # no variant overlaps, so all three are tried
        Prediction(record_id="miss", approach="direct", bbox=BoundingBox(60, 60, 70, 70)),
        Prediction(record_id="point", approach="direct", point=GeoPoint(5, 5)),
        Prediction(record_id="none", approach="direct", flags=("no_parse",)),
    ]
    aggregate(preds, golds)
    assert len(calls) == 3  # one per covered box
    calls.clear()
    report = analyze_errors(preds, golds)
    assert report.sign_flip_suspects == 1
    assert len(calls) == 3 + 1 + 3  # one per covered box, then the variants of the two misses


def test_metrics_match_mc_oracle():
    # 50 random overlapping pairs, analytic vs uniform-sphere sampling
    rng = np.random.default_rng(77)
    for i in range(50):
        pred, gold = random_box_pair(rng)
        (p_est, p_se), (r_est, r_se) = mc_overlap_fractions(pred, gold, n=200_000, seed=i)
        assert abs(area_precision(pred, gold) - p_est) <= max(3.5 * p_se, 1e-9)
        assert abs(area_recall(pred, gold) - r_est) <= max(3.5 * r_se, 1e-9)


# --- harmonic mean -----------------------------------------------------------


def test_harmonic_f1_values():
    assert harmonic_f1(0.0, 0.0) == 0.0
    assert harmonic_f1(1.0, 1.0) == 1.0
    assert harmonic_f1(1.0, 0.0) == 0.0
    assert harmonic_f1(0.1, 0.496) == pytest.approx(2 * 0.1 * 0.496 / 0.596, rel=1e-12)


def test_harmonic_f1_rejects_negatives():
    with pytest.raises(ValueError):
        harmonic_f1(-0.1, 0.5)


# --- distance ----------------------------------------------------------------


def test_distance_between_box_centroids():
    pred = Prediction(record_id="x", approach="direct", bbox=BoundingBox(0, 0, 10, 10))
    gold = BoundingBox(20, 0, 30, 10)
    expected = haversine_km(GeoPoint(5, 5), GeoPoint(5, 25))
    assert distance_error_km(pred, gold) == pytest.approx(expected, rel=1e-12)


def test_distance_point_prediction_against_gold_box():
    pred = Prediction(record_id="x", approach="knowledge-point", point=GeoPoint(5, 5))
    assert distance_error_km(pred, BoundingBox(0, 0, 10, 10)) == 0.0


def test_distance_undefined_when_uncovered():
    pred = Prediction(record_id="x", approach="direct", flags=("no_parse",))
    with pytest.raises(ValueError):
        distance_error_km(pred, BoundingBox(0, 0, 10, 10))


# --- prediction invariants ------------------------------------------------------


def test_prediction_rejects_bbox_and_point_together():
    with pytest.raises(ValueError):
        Prediction(
            record_id="x",
            approach="direct",
            bbox=BoundingBox(0, 0, 1, 1),
            point=GeoPoint(0, 0),
        )


def test_prediction_covered_property():
    assert not Prediction(record_id="x", approach="direct").covered
    assert Prediction(record_id="x", approach="direct", bbox=BoundingBox(0, 0, 1, 1)).covered
    assert Prediction(record_id="x", approach="k", point=GeoPoint(0, 0)).covered


# --- aggregation ------------------------------------------------------------------


def _echo_preds(golds, ids):
    return [
        Prediction(record_id=i, approach="direct", bbox=golds[i]) for i in ids
    ]


def test_aggregate_coverage_fraction():
    golds = {f"r{i:04d}": BoundingBox(0, 0, 10, 10) for i in range(1000)}
    ids = sorted(golds)
    preds = _echo_preds(golds, ids[:908]) + [
        Prediction(record_id=i, approach="direct", flags=("no_parse",)) for i in ids[908:]
    ]
    report = aggregate(preds, golds, label="direct/test")
    assert report.n_total == 1000
    assert report.n_covered == 908
    assert report.coverage_pct == pytest.approx(90.8, rel=1e-12)
    assert report.mean_distance_km == 0.0
    assert report.area_precision == pytest.approx(1.0, rel=1e-12)
    assert report.area_f1 == pytest.approx(1.0, rel=1e-12)


def test_aggregate_missing_predictions_count_as_uncovered():
    golds = {"a": BoundingBox(0, 0, 10, 10), "b": BoundingBox(0, 0, 10, 10)}
    report = aggregate(_echo_preds(golds, ["a"]), golds)
    assert report.n_total == 2
    assert report.n_covered == 1
    assert report.coverage_pct == 50.0


def test_aggregate_f1_is_harmonic_of_means():
    # one over-wide and one over-narrow prediction; the harmonic mean of
    # the aggregate P and R (0.55 each) differs from the mean of the
    # per-record F1s (0.1818...)
    golds = {"a": BoundingBox(0, 0, 10, 10), "b": BoundingBox(0, 0, 10, 10)}
    preds = [
        Prediction(record_id="a", approach="direct", bbox=BoundingBox(0, 0, 1, 10)),
        Prediction(record_id="b", approach="direct", bbox=BoundingBox(0, 0, 100, 10)),
    ]
    report = aggregate(preds, golds)
    assert report.area_precision == pytest.approx(0.55, rel=1e-12)
    assert report.area_recall == pytest.approx(0.55, rel=1e-12)
    assert report.area_f1 == pytest.approx(0.55, rel=1e-12)


def test_aggregate_point_predictions_have_no_area_metrics():
    golds = {"a": BoundingBox(0, 0, 10, 10)}
    preds = [Prediction(record_id="a", approach="knowledge-point", point=GeoPoint(5, 5))]
    report = aggregate(preds, golds)
    assert report.n_covered == 1
    assert report.mean_distance_km == 0.0
    assert report.area_precision is None
    assert report.area_recall is None
    assert report.area_f1 is None


def test_aggregate_mixed_geometry_scores_area_on_box_subset():
    golds = {
        "a": BoundingBox(0, 0, 10, 10),
        "b": BoundingBox(0, 0, 10, 10),
        "c": BoundingBox(0, 0, 10, 10),
    }
    preds = [
        Prediction(record_id="a", approach="x", bbox=BoundingBox(0, 0, 10, 10)),
        Prediction(record_id="b", approach="x", point=GeoPoint(5, 5)),
        Prediction(record_id="c", approach="x", flags=("no_parse",)),
    ]
    report = aggregate(preds, golds)
    assert report.n_covered == 2
    assert report.area_precision == pytest.approx(1.0, rel=1e-12)
    assert report.mean_distance_km == pytest.approx(0.0, abs=1e-9)


def test_aggregate_distance_only_over_covered():
    golds = {"a": BoundingBox(0, 0, 10, 10), "b": BoundingBox(0, 0, 10, 10)}
    far = BoundingBox(20, 0, 30, 10)
    preds = [
        Prediction(record_id="a", approach="x", bbox=far),
        Prediction(record_id="b", approach="x", flags=("no_parse",)),
    ]
    report = aggregate(preds, golds)
    expected = haversine_km(GeoPoint(5, 25), GeoPoint(5, 5))
    assert report.mean_distance_km == pytest.approx(expected, rel=1e-12)


def test_aggregate_rejects_unknown_id():
    golds = {"a": BoundingBox(0, 0, 10, 10)}
    with pytest.raises(ValueError):
        aggregate(_echo_preds({"z": BoundingBox(0, 0, 1, 1)}, ["z"]), golds)


def test_aggregate_rejects_duplicate_id():
    golds = {"a": BoundingBox(0, 0, 10, 10)}
    preds = _echo_preds(golds, ["a"]) + _echo_preds(golds, ["a"])
    with pytest.raises(ValueError):
        aggregate(preds, golds)


def test_aggregate_empty():
    report = aggregate([], {})
    assert report.n_total == 0
    assert report.coverage_pct == 0.0
    assert report.mean_distance_km is None
    assert report.area_f1 is None


def test_report_round_trip():
    report = MetricsReport(
        label="direct/m",
        n_total=20,
        n_covered=17,
        coverage_pct=85.0,
        mean_distance_km=123.456,
        area_precision=0.5,
        area_recall=0.25,
        area_f1=1 / 3,
    )
    assert MetricsReport.from_record(report.to_record()) == report
    nulls = MetricsReport("k", 5, 0, 0.0, None, None, None, None)
    assert MetricsReport.from_record(nulls.to_record()) == nulls
