"""Probes for systematic failure modes in scored predictions.

Two specific pathologies get dedicated detectors, because both produce
boxes that look plausible in isolation:

* sign flips — the box is right except one or both coordinate axes had
  their signs negated, landing it in a mirror-image part of the world;
* coordinate copying — a geo-augmented reasoner that skipped reasoning
  and assembled its box straight from the min/max of the mention
  centers it was shown.

Plus bookkeeping tallies: parse-validity failures and whether covered
predictions skew toward over-coverage (recall > precision) or
over-tightness (precision > recall).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Iterable, Mapping

from .geo import BoundingBox, GeoPoint, bbox_intersection
from .metrics import Prediction, checked_predictions, score_pair

# Edge tolerance for coordinate-copy detection. Tight enough that only a
# copied (or barely nudged) value matches; the loose pass catches the
# "rounded for simplicity" habit seen in real traces.
COPY_EPS_DEG = 0.01
COPY_EPS_LOOSE_DEG = 0.1


@dataclass
class ErrorReport:
    """Counts from one analysis pass. Every counter is ≤ n_scored."""

    n_scored: int = 0
    sign_flip_suspects: int = 0
    coord_copy_suspects: int = 0
    coord_copy_suspects_loose: int = 0
    invalid_parse: int = 0
    out_of_range_parse: int = 0
    precision_gt_recall: int = 0
    recall_gt_precision: int = 0

    def to_record(self) -> dict:
        return asdict(self)


def sign_flip_variants(box: BoundingBox) -> tuple[BoundingBox, BoundingBox, BoundingBox]:
    """The three nontrivial sign negations of a box.

    Negating an axis swaps its min/max, so the variants re-order bounds
    and stay valid boxes: (lons negated, lats negated, both negated).
    """
    lon_min, lat_min, lon_max, lat_max = box.as_tuple()
    return (
        BoundingBox(-lon_max, lat_min, -lon_min, lat_max),
        BoundingBox(lon_min, -lat_max, lon_max, -lat_min),
        BoundingBox(-lon_max, -lat_max, -lon_min, -lat_min),
    )


def _edge_gaps(pred_box: BoundingBox, centers: list[GeoPoint]) -> tuple[float, ...]:
    """How far each box edge sits from the matching min/max over the centers, in degrees."""
    lons = [c.lon for c in centers]
    lats = [c.lat for c in centers]
    return (
        abs(pred_box.lon_min - min(lons)),
        abs(pred_box.lon_max - max(lons)),
        abs(pred_box.lat_min - min(lats)),
        abs(pred_box.lat_max - max(lats)),
    )


def analyze_errors(
    predictions: Iterable[Prediction],
    golds: Mapping[str, BoundingBox],
) -> ErrorReport:
    """Scan scored predictions for systematic error signatures.

    Sign-flip probe: a covered box prediction with zero gold overlap is
    a suspect when any of its three sign-negation variants does overlap
    the gold box. Coordinate-copy probe: a prediction made with recalled
    mentions is a suspect when at least 3 of its 4 edges sit within
    ``COPY_EPS_DEG`` of the min/max over the recalled centers (the loose
    counter repeats the test at ``COPY_EPS_LOOSE_DEG``). Skew tallies
    compare per-record areal precision against recall.

    Counts are permutation-invariant; every prediction id must be in
    ``golds``, at most once.

    Raises:
        ValueError: prediction id missing from golds, or duplicated.
    """
    report = ErrorReport()
    for pred in checked_predictions(predictions, golds):
        report.n_scored += 1

        if "invalid_order" in pred.flags or "invalid_range" in pred.flags:
            report.invalid_parse += 1
        if "invalid_range" in pred.flags:
            report.out_of_range_parse += 1

        if pred.bbox is None:
            continue
        gold = golds[pred.record_id]
        precision, recall, overlaps = score_pair(pred.bbox, gold)

        if not overlaps and any(
            bbox_intersection(variant, gold) is not None
            for variant in sign_flip_variants(pred.bbox)
        ):
            report.sign_flip_suspects += 1

        if pred.recalled:
            gaps = _edge_gaps(pred.bbox, [info.center for _, info in pred.recalled])
            if sum([gap <= COPY_EPS_DEG for gap in gaps]) >= 3:
                report.coord_copy_suspects += 1
            if sum([gap <= COPY_EPS_LOOSE_DEG for gap in gaps]) >= 3:
                report.coord_copy_suspects_loose += 1

        if precision > recall:
            report.precision_gt_recall += 1
        elif recall > precision:
            report.recall_gt_precision += 1
    return report
