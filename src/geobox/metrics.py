"""Scoring of grounded predictions against gold geometry.

Three measurements, all defined on the sphere:

* coverage — share of records for which the system produced a usable
  geometry at all, as a percentage;
* distance error — great-circle distance between the predicted and gold
  centroids, averaged over covered records;
* areal precision/recall/F1 — how much of the predicted box is actually
  gold area, and how much of the gold box was captured, macro-averaged
  over covered box predictions, with F1 the harmonic mean of the means.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Iterable, Iterator, Mapping

from .geo import (
    BoundingBox,
    GeoInfo,
    GeoPoint,
    _haversine_km,
    bbox_area_km2,
    bbox_centroid,
    bbox_intersection,
    value_type,
)
from .jsonio import json_text


@value_type
class Prediction:
    """One system output for one record.

    At most one of ``bbox``/``point`` is set; a prediction with neither
    is uncovered (the system failed to produce usable geometry) and
    ``flags`` says why. ``recalled`` keeps the (name, GeoInfo) pairs the
    reasoner was shown, which error analysis needs later.
    """

    record_id: str
    approach: str
    model: str = ""
    bbox: BoundingBox | None = None
    point: GeoPoint | None = None
    raw_text: str = ""
    recalled: tuple[tuple[str, GeoInfo], ...] = ()
    flags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.bbox is not None and self.point is not None:
            raise ValueError("prediction cannot carry both a bbox and a point")

    @property
    def covered(self) -> bool:
        return self.bbox is not None or self.point is not None


@dataclass
class MetricsReport:
    """Aggregate scores for one experiment run.

    Area metrics are None when no covered box predictions exist (e.g. a
    point-output approach); mean distance is None when nothing is covered.
    """

    label: str
    n_total: int
    n_covered: int
    coverage_pct: float
    mean_distance_km: float | None
    area_precision: float | None
    area_recall: float | None
    area_f1: float | None

    def to_record(self) -> dict:
        return asdict(self)

    @classmethod
    def from_record(cls, rec: Mapping) -> "MetricsReport":
        return cls(
            label=json_text(rec["label"], "label"),
            n_total=int(rec["n_total"]),
            n_covered=int(rec["n_covered"]),
            coverage_pct=float(rec["coverage_pct"]),
            mean_distance_km=_opt_float(rec.get("mean_distance_km")),
            area_precision=_opt_float(rec.get("area_precision")),
            area_recall=_opt_float(rec.get("area_recall")),
            area_f1=_opt_float(rec.get("area_f1")),
        )


def _opt_float(v) -> float | None:
    return None if v is None else float(v)


def score_pair(pred: BoundingBox, gold: BoundingBox) -> tuple[float, float, bool]:
    """Areal ``(precision, recall, overlaps)`` of a predicted box against a gold box.

    Precision is the fraction of the predicted box's area that overlaps
    the gold box. A degenerate prediction (zero area) has precision 0:
    it asserts nothing about area, so none of it is correct.

    Recall is the fraction of the gold box's area captured by the
    prediction. A degenerate gold box (zero area) cannot be ratioed;
    recall is 1.0 when the prediction contains the gold centroid, else 0.0.

    ``overlaps`` is whether ``bbox_intersection`` finds an overlap, so
    touching edges or corners do not overlap.
    """
    overlap = bbox_intersection(pred, gold)
    shared = bbox_area_km2(overlap) if overlap is not None else 0.0
    pred_area = bbox_area_km2(pred)
    gold_area = bbox_area_km2(gold)
    precision = shared / pred_area if pred_area > 0.0 else 0.0
    if gold_area > 0.0:
        recall = shared / gold_area
    else:
        recall = 1.0 if pred.contains(bbox_centroid(gold)) else 0.0
    return precision, recall, overlap is not None


def area_precision(pred: BoundingBox, gold: BoundingBox) -> float:
    """Fraction of the predicted box's area that overlaps the gold box (see ``score_pair``)."""
    return score_pair(pred, gold)[0]


def area_recall(pred: BoundingBox, gold: BoundingBox) -> float:
    """Fraction of the gold box's area captured by the prediction (see ``score_pair``)."""
    return score_pair(pred, gold)[1]


def harmonic_f1(precision: float, recall: float) -> float:
    """Harmonic mean of precision and recall; 0 when both are 0."""
    if precision < 0.0 or recall < 0.0:
        raise ValueError("precision and recall must be non-negative")
    total = precision + recall
    if total == 0.0:
        return 0.0
    return 2.0 * precision * recall / total


def distance_error_km(prediction: Prediction, gold: BoundingBox) -> float:
    """Great-circle distance between predicted and gold centers, in km.

    Boxes are reduced to their centroids; a point prediction is used as-is.

    Raises:
        ValueError: if the prediction is uncovered.
    """
    # The centroids as bbox_centroid computes them, kept as plain floats.
    box = prediction.bbox
    if box is not None:
        lat = (box.lat_min + box.lat_max) / 2.0
        lon = (box.lon_min + box.lon_max) / 2.0
    elif prediction.point is not None:
        lat = prediction.point.lat
        lon = prediction.point.lon
    else:
        raise ValueError("distance is undefined for an uncovered prediction")
    return _haversine_km(
        lat, lon, (gold.lat_min + gold.lat_max) / 2.0, (gold.lon_min + gold.lon_max) / 2.0
    )


def checked_predictions(
    predictions: Iterable[Prediction], golds: Mapping[str, BoundingBox]
) -> Iterator[Prediction]:
    """Yield each prediction after checking that its id is in ``golds`` and not repeated.

    Raises:
        ValueError: on a prediction id missing from golds, or duplicated.
    """
    seen: set[str] = set()
    for pred in predictions:
        if pred.record_id not in golds:
            raise ValueError(f"prediction for unknown record id {pred.record_id!r}")
        if pred.record_id in seen:
            raise ValueError(f"duplicate prediction for record id {pred.record_id!r}")
        seen.add(pred.record_id)
        yield pred


def aggregate(
    predictions: Iterable[Prediction],
    golds: Mapping[str, BoundingBox],
    label: str = "",
) -> MetricsReport:
    """Score a set of predictions against gold geometry.

    Args:
        predictions: at most one per record id; every id must be a key
            of ``golds``. Records in ``golds`` with no prediction count
            as uncovered.
        golds: gold box per record id; the denominator of coverage.
        label: carried into the report verbatim (approach/model tag).

    Returns:
        MetricsReport. Coverage is 100 * covered / len(golds). Mean
        distance averages over covered predictions. Areal precision and
        recall are macro means of the per-record values over covered box
        predictions; F1 is the harmonic mean of the two aggregate
        values, not the mean of per-record F1s.

    Raises:
        ValueError: on a prediction id missing from golds, or duplicated.
    """
    n_total = len(golds)
    n_covered = n_boxes = 0
    # Running totals added left to right from 0.0: the same bytes on every
    # Python, where sum() compensates for rounding from 3.12 on.
    distance = precision = recall = 0.0
    for pred in checked_predictions(predictions, golds):
        if not pred.covered:
            continue
        n_covered += 1
        gold = golds[pred.record_id]
        distance += distance_error_km(pred, gold)
        if pred.bbox is not None:
            n_boxes += 1
            p, r, _ = score_pair(pred.bbox, gold)
            precision += p
            recall += r

    coverage_pct = 100.0 * n_covered / n_total if n_total else 0.0
    mean_distance = distance / n_covered if n_covered else None
    if n_boxes:
        p = precision / n_boxes
        r = recall / n_boxes
        f1 = harmonic_f1(p, r)
    else:
        p = r = f1 = None
    return MetricsReport(
        label=label,
        n_total=n_total,
        n_covered=n_covered,
        coverage_pct=coverage_pct,
        mean_distance_km=mean_distance,
        area_precision=p,
        area_recall=r,
        area_f1=f1,
    )
