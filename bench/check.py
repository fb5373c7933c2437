"""Correctness checks for benchmark outputs, computed apart from geobox.

The geometry here (spherical zone area, haversine distance, strict box
intersection) and the metric and probe definitions are written from
the definitions in geobox's README, not imported from it, so a fault in the
package's own scoring cannot hide behind an identical fault in the check.
"""

from __future__ import annotations

import json
import math

R_KM = 6371.0088
REL_TOL = 1e-9


def zone_area(box: list[float]) -> float:
    """Area of a lon/lat box on the sphere, in km^2 (sum-to-product form)."""
    lon0, lat0, lon1, lat1 = (math.radians(v) for v in box)
    return 2.0 * R_KM * R_KM * (lon1 - lon0) * math.cos((lat0 + lat1) / 2.0) * math.sin((lat1 - lat0) / 2.0)


def haversine(lon0: float, lat0: float, lon1: float, lat1: float) -> float:
    p0, p1 = math.radians(lat0), math.radians(lat1)
    h = math.sin((p1 - p0) / 2.0) ** 2 + math.cos(p0) * math.cos(p1) * math.sin(math.radians(lon1 - lon0) / 2.0) ** 2
    return 2.0 * R_KM * math.asin(math.sqrt(min(1.0, h)))


def overlap(a: list[float], b: list[float]) -> list[float] | None:
    """Strict intersection: sharing an edge is no overlap."""
    box = [max(a[0], b[0]), max(a[1], b[1]), min(a[2], b[2]), min(a[3], b[3])]
    return box if box[0] < box[2] and box[1] < box[3] else None


def precision_recall(pred: list[float], gold: list[float]) -> tuple[float, float]:
    inter = overlap(pred, gold)
    if inter is None:
        return 0.0, 0.0
    shared = zone_area(inter)
    return shared / zone_area(pred), shared / zone_area(gold)


def scores(preds: list[dict], golds: dict[str, list[float]]) -> dict:
    """Coverage, mean centroid distance and set-level area P/R/F1."""
    dists, ps, rs = [], [], []
    for pred in preds:
        box = pred["bbox"]
        if box is None:
            continue
        gold = golds[pred["record_id"]]
        dists.append(
            haversine((box[0] + box[2]) / 2, (box[1] + box[3]) / 2, (gold[0] + gold[2]) / 2, (gold[1] + gold[3]) / 2)
        )
        p, r = precision_recall(box, gold)
        ps.append(p)
        rs.append(r)
    p = sum(ps) / len(ps)
    r = sum(rs) / len(rs)
    return {
        "n_total": len(golds),
        "n_covered": len(dists),
        "coverage_pct": 100.0 * len(dists) / len(golds),
        "mean_distance_km": sum(dists) / len(dists),
        "area_precision": p,
        "area_recall": r,
        "area_f1": 2 * p * r / (p + r),
    }


def _negations(box: list[float]) -> list[list[float]]:
    lons = [-box[2], box[1], -box[0], box[3]]
    lats = [box[0], -box[3], box[2], -box[1]]
    both = [-box[2], -box[3], -box[0], -box[1]]
    return [lons, lats, both]


def _copied_edges(box: list[float], centers: list[tuple[float, float]], eps: float) -> int:
    lons = [c[0] for c in centers]
    lats = [c[1] for c in centers]
    extremes = (min(lons), min(lats), max(lons), max(lats))
    return sum(1 for edge, ext in zip(box, extremes) if abs(edge - ext) <= eps)


def probe_counts(preds: list[dict], golds: dict[str, list[float]]) -> dict[str, int]:
    """Error-probe counts as README's "Error probes" section defines them."""
    c = dict.fromkeys(
        (
            "sign_flip_suspects",
            "coord_copy_suspects",
            "coord_copy_suspects_loose",
            "invalid_parse",
            "out_of_range_parse",
            "precision_gt_recall",
            "recall_gt_precision",
        ),
        0,
    )
    c["n_scored"] = len(preds)
    for pred in preds:
        flags = pred["flags"]
        if "invalid_order" in flags or "invalid_range" in flags:
            c["invalid_parse"] += 1
        if "invalid_range" in flags:
            c["out_of_range_parse"] += 1
        box = pred["bbox"]
        if box is None:
            continue
        gold = golds[pred["record_id"]]
        if overlap(box, gold) is None and any(overlap(v, gold) for v in _negations(box)):
            c["sign_flip_suspects"] += 1
        centers = [(info["lon"], info["lat"]) for _, info in pred["recalled"]]
        if centers:
            c["coord_copy_suspects"] += _copied_edges(box, centers, 0.01) >= 3
            c["coord_copy_suspects_loose"] += _copied_edges(box, centers, 0.1) >= 3
        p, r = precision_recall(box, gold)
        if p > r:
            c["precision_gt_recall"] += 1
        elif r > p:
            c["recall_gt_precision"] += 1
    return c


def read_jsonl(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def failed_records(pred_path: str, expected: list[dict]) -> list[str]:
    """Ids of records whose prediction differs from the expectation.

    A record also fails when it carries ``transport_error`` or
    ``protocol_error``, or is missing from the file.
    """
    got = {p["record_id"]: p for p in read_jsonl(pred_path)}
    bad = []
    for want in expected:
        have = got.get(want["record_id"])
        if (
            have is None
            or have != want
            or "transport_error" in have["flags"]
            or "protocol_error" in have["flags"]
        ):
            bad.append(want["record_id"])
    return bad


def compare_scores(report: dict, want: dict) -> list[str]:
    """Fields of a geobox metrics report that differ from the recomputation."""
    wrong = []
    for key, value in want.items():
        have = report.get(key)
        if isinstance(value, int):
            ok = have == value
        else:
            ok = isinstance(have, float) and math.isclose(have, value, rel_tol=REL_TOL)
        if not ok:
            wrong.append(f"{key}: geobox {have!r}, expected {value!r}")
    return wrong
