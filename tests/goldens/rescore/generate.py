"""Write the rescore golden inputs: a dataset and a predictions file.

    python tests/goldens/rescore/generate.py

Writes ``dataset.jsonl`` and ``predictions.jsonl`` next to this script.
The outputs are committed and pinned byte for byte by
``tests/test_rescore_goldens.py``, together with the reports that
``geobox eval --report-out`` and ``geobox analyze --out`` wrote for
them; rerunning this script is only needed to add cases.

Each record gets one prediction kind, cycling through ``KINDS``: boxes
equal to, inside and containing gold, sign-flipped boxes, far misses,
boxes copied (exactly or nearly) from the recalled centers, uncovered
predictions with ``invalid_*``/``no_parse`` flags, point predictions,
degenerate gold boxes and ``-0.0`` edges. A few records get no
prediction at all.
"""

from __future__ import annotations

import json
import pathlib
import random

HERE = pathlib.Path(__file__).parent
N_RECORDS = 320

KINDS = (
    "equal",
    "inside",
    "containing",
    "flip-lon",
    "flip-lat",
    "flip-both",
    "far-miss",
    "copied",
    "near-copied",
    "invalid-order",
    "invalid-range",
    "no-parse",
    "point",
    "degenerate-gold",
    "signed-zero",
    "recalled-full",
)


def _clamp(v: float, lo: float, hi: float) -> float:
    return min(hi, max(lo, v))


def _gold(rng: random.Random, kind: str) -> list[float]:
    if kind == "signed-zero":
        return [-0.0, -0.0, rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)]
    if kind == "degenerate-gold":
        lon, lat = rng.uniform(-170, 170), rng.uniform(-80, 80)
        shape = rng.randrange(3)
        if shape == 0:  # a point
            return [lon, lat, lon, lat]
        if shape == 1:  # zero width
            return [lon, lat, lon, lat + rng.uniform(0.1, 2.0)]
        return [lon, lat, lon + rng.uniform(0.1, 2.0), lat]  # zero height
    if kind.startswith("flip"):
        # Away from the axes, so the flipped box cannot overlap gold.
        lon = rng.uniform(20, 150) * rng.choice((-1, 1))
        lat = rng.uniform(10, 70) * rng.choice((-1, 1))
    else:
        lon, lat = rng.uniform(-170, 165), rng.uniform(-80, 75)
    w, h = rng.uniform(0.01, 5.0), rng.uniform(0.01, 5.0)
    box = [lon, lat, min(180.0, lon + w), min(90.0, lat + h)]
    if rng.random() < 0.3:
        box = [round(v, 3) for v in box]
    return box


def _centers(rng: random.Random, box: list[float], n: int) -> list[tuple[float, float]]:
    """n (lon, lat) centers whose min/max are exactly the box edges."""
    lon0, lat0, lon1, lat1 = box
    pts = [(lon0, lat0), (lon1, lat1)]
    pts += [(rng.uniform(lon0, lon1), rng.uniform(lat0, lat1)) for _ in range(n - 2)]
    rng.shuffle(pts)
    return pts


def _recalled(rng: random.Random, centers, full: bool) -> list:
    out = []
    for i, (lon, lat) in enumerate(centers):
        info: dict = {"name": f"Place {i}", "lat": lat, "lon": lon}
        if full:
            info["country"] = rng.choice(("Norway", "Chile", "Kenya"))
            info["bbox"] = [
                _clamp(lon - 0.5, -180, 180),
                _clamp(lat - 0.5, -90, 90),
                _clamp(lon + 0.5, -180, 180),
                _clamp(lat + 0.5, -90, 90),
            ]
            info["id"] = f"gz-{rng.randrange(10**6)}"
        out.append([f"Place {i}", info])
    return out


def _prediction(rng: random.Random, rid: str, kind: str, gold: list[float]) -> dict | None:
    lon0, lat0, lon1, lat1 = gold
    cx, cy = (lon0 + lon1) / 2, (lat0 + lat1) / 2
    bbox = point = None
    flags: list[str] = []
    recalled: list = []
    if kind == "equal":
        bbox = list(gold)
    elif kind == "inside":
        bbox = [lon0 + (cx - lon0) / 3, lat0 + (cy - lat0) / 3, lon1 - (lon1 - cx) / 4, lat1 - (lat1 - cy) / 4]
    elif kind == "containing":
        pad = rng.uniform(0.1, 3.0)
        bbox = [_clamp(lon0 - pad, -180, 180), _clamp(lat0 - pad, -90, 90),
                _clamp(lon1 + pad, -180, 180), _clamp(lat1 + pad / 2, -90, 90)]
    elif kind == "flip-lon":
        bbox = [-lon1, lat0, -lon0, lat1]
    elif kind == "flip-lat":
        bbox = [lon0, -lat1, lon1, -lat0]
    elif kind == "flip-both":
        bbox = [-lon1, -lat1, -lon0, -lat0]
    elif kind == "far-miss":
        lon = _clamp(-cx + rng.uniform(-5, 5), -175, 170)
        lat = _clamp(-cy / 2 + rng.uniform(-5, 5), -85, 80)
        bbox = [lon, lat, lon + rng.uniform(0.5, 4), lat + rng.uniform(0.5, 4)]
    elif kind in ("copied", "near-copied", "recalled-full"):
        bbox = [lon0 - 0.2, lat0 - 0.1, lon1 + 0.3, lat1 + 0.2]
        bbox = [_clamp(bbox[0], -180, 180), _clamp(bbox[1], -90, 90),
                _clamp(bbox[2], -180, 180), _clamp(bbox[3], -90, 90)]
        centers = _centers(rng, bbox, rng.randrange(2, 5))
        if kind == "near-copied":
            # Nudge some edges past the tight tolerance but inside the loose one.
            nudge = rng.choice((0.005, 0.05, 0.2))
            centers = [(lon + nudge, lat - nudge / 2) for lon, lat in centers]
            centers = [(_clamp(lon, -180, 180), _clamp(lat, -90, 90)) for lon, lat in centers]
        recalled = _recalled(rng, centers, full=kind == "recalled-full")
    elif kind == "invalid-order":
        flags = ["invalid_order"]
    elif kind == "invalid-range":
        flags = ["invalid_range"]
    elif kind == "no-parse":
        flags = ["no_parse"]
    elif kind == "point":
        point = [_clamp(cy + rng.uniform(-1, 1), -90, 90), _clamp(cx + rng.uniform(-1, 1), -180, 180)]
    elif kind == "degenerate-gold":
        if rng.random() < 0.5:
            bbox = [_clamp(lon0 - 0.5, -180, 180), _clamp(lat0 - 0.5, -90, 90),
                    _clamp(lon1 + 0.5, -180, 180), _clamp(lat1 + 0.5, -90, 90)]
        else:
            bbox = [_clamp(lon1 + 0.5, -180, 179), _clamp(lat0, -90, 89), 180.0, 90.0]
    elif kind == "signed-zero":
        bbox = rng.choice((
            [-1.0, -0.0, 0.0, lat1 / 2],
            [-0.0, -0.5, lon1, 0.0],
            [0.0, 0.0, lon1 * 2, lat1 * 2],
            [-0.0, -0.0, -0.0, -0.0],
        ))
    if rng.random() < 0.15 and bbox is not None:
        flags.append("recall_miss:Nowhere")
    approach = "geoaug-oracle" if recalled else rng.choice(("direct", "knowledge-box", "knowledge-point"))
    return {
        "record_id": rid,
        "approach": approach,
        "model": "golden-m",
        "bbox": bbox,
        "point": point,
        "raw_text": f"reply for {rid}",
        "recalled": recalled,
        "flags": flags,
    }


def main() -> None:
    rng = random.Random(20250112)
    records, predictions = [], []
    for i in range(N_RECORDS):
        rid = f"g{i:03d}"
        kind = KINDS[i % len(KINDS)]
        gold = _gold(rng, kind)
        record = {
            "id": rid,
            "description": f"Area {i} west of Place A and Place B.",
            "gold_bbox": gold,
            "mentions": [
                {"name": "Place A", "lat": gold[1], "lon": gold[0]},
                {"name": "Place B"},
            ],
        }
        if i % 3 == 0:
            record["gold_name"] = f"Area {i}"
            record["gold_country"] = "Norway"
        records.append(record)
        if i % 37 == 5:
            continue  # no prediction: uncovered by absence
        predictions.append(_prediction(rng, rid, kind, gold))
    rng.shuffle(predictions)
    for name, rows in (("dataset.jsonl", records), ("predictions.jsonl", predictions)):
        text = "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows)
        (HERE / name).write_text(text, encoding="utf-8")


if __name__ == "__main__":
    main()
