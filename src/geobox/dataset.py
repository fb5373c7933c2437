"""Dataset records, their JSONL loading and writing, and subsampling.

A record pairs a natural-language location description with gold
geometry: the gold bounding box, optionally a canonical name/country for
knowledge baselines, and the locations mentioned in the text, each
optionally carrying its own gold coordinates for oracle recall.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .geo import (
    BoundingBox,
    GeoInfo,
    GeoPoint,
    bbox_from_obj,
    geoinfo_from_obj,
    geoinfo_to_obj,
    value_type,
)
from .jsonio import DataError, atomic_write_jsonl, json_list, json_text, read_jsonl
from .metrics import Prediction

logger = logging.getLogger(__name__)


@value_type
class Mention:
    """A location named inside a description, with optional gold geography."""

    name: str
    gold: GeoInfo | None = None

    def __post_init__(self) -> None:
        if not self.name or not self.name.strip():
            raise ValueError("mention name must be non-empty")


@value_type
class LocationRecord:
    """One dataset example.

    Invariants enforced here: non-empty id and description, a valid gold
    box, and every mention name occurring verbatim in the description
    (mentions are spans of the text, not free annotations).
    """

    record_id: str
    description: str
    gold_bbox: BoundingBox
    mentions: tuple[Mention, ...] = ()
    gold_name: str | None = None
    gold_country: str | None = None

    def __post_init__(self) -> None:
        if not self.record_id:
            raise ValueError("record_id must be non-empty")
        if not self.description or not self.description.strip():
            raise ValueError("description must be non-empty")
        if not isinstance(self.gold_bbox, BoundingBox):
            raise ValueError("gold_bbox must be a BoundingBox")
        for mention in self.mentions:
            if mention.name not in self.description:
                raise ValueError(
                    f"mention {mention.name!r} does not occur in the description"
                )


@dataclass
class LoadReport:
    """What happened while reading a dataset file."""

    n_loaded: int = 0
    skipped: list[tuple[int, str]] = field(default_factory=list)

    @property
    def n_skipped(self) -> int:
        return len(self.skipped)


def _mention_from_obj(obj: dict) -> Mention:
    if not isinstance(obj, dict):
        raise TypeError(f"expected a mention object, got {type(obj).__name__}")
    # A mention has gold only when both coordinates are present.
    has_gold = obj.get("lat") is not None and obj.get("lon") is not None
    return Mention(json_text(obj["name"], "name"), geoinfo_from_obj(obj) if has_gold else None)


def record_from_obj(obj: dict) -> LocationRecord:
    """Build a LocationRecord from one decoded JSONL object."""
    # Positional, in field order: arguments are evaluated left to right,
    # so a malformed object fails on its first bad field in that order.
    return LocationRecord(
        json_text(obj["id"], "id"),
        json_text(obj["description"], "description"),
        bbox_from_obj(obj["gold_bbox"]),
        tuple([_mention_from_obj(m) for m in json_list(obj.get("mentions", []), "mentions")]),
        json_text(obj.get("gold_name"), "gold_name", None),
        json_text(obj.get("gold_country"), "gold_country", None),
    )


def record_to_obj(record: LocationRecord) -> dict:
    obj: dict = {
        "id": record.record_id,
        "description": record.description,
        "gold_bbox": list(record.gold_bbox.as_tuple()),
    }
    if record.gold_name is not None:
        obj["gold_name"] = record.gold_name
    if record.gold_country is not None:
        obj["gold_country"] = record.gold_country
    # mention list always written, even when empty, to keep the schema visible
    obj["mentions"] = [
        {**geoinfo_to_obj(m.gold), "name": m.name} if m.gold is not None else {"name": m.name}
        for m in record.mentions
    ]
    return obj


def load_dataset(path: str | os.PathLike) -> tuple[list[LocationRecord], LoadReport]:
    """Read records from JSONL, collecting bad lines instead of dying on them.

    Skipped lines (unparseable JSON, schema violations, duplicate ids —
    first occurrence wins) are reported with their line number and
    reason.

    Raises:
        DataError: file unreadable, or no line yielded a valid record.
    """
    skipped: list[tuple[int, str]] = []
    seen_ids: set[str] = set()

    def build(obj: dict) -> LocationRecord:
        record = record_from_obj(obj)
        if record.record_id in seen_ids:
            raise ValueError(f"duplicate id {record.record_id!r}")
        seen_ids.add(record.record_id)
        return record

    def skip(line_no: int, exc: Exception) -> None:
        skipped.append((line_no, str(exc)))
        logger.warning("dataset %s line %d skipped: %s", path, line_no, exc)

    records = read_jsonl(path, "dataset", build, skip)
    if not records:
        raise DataError(f"dataset {path} contains no valid records")
    return records, LoadReport(len(records), skipped)


def write_dataset(records: Iterable[LocationRecord], path: str | os.PathLike) -> None:
    """Write records as JSONL, atomically: all lines or the old file."""
    atomic_write_jsonl(path, (record_to_obj(r) for r in records))


def golds_by_id(records: Iterable[LocationRecord]) -> dict[str, BoundingBox]:
    """Gold geometry keyed by record id, the shape scoring functions take."""
    return {r.record_id: r.gold_bbox for r in records}


# --- deterministic subsampling -------------------------------------------
#
# Training subsets must be reproducible across machines and Python
# versions, so no stdlib random here: a fixed 64-bit linear congruential
# generator (Knuth's MMIX multiplier) drives a partial Fisher-Yates
# shuffle. The exact recurrence, documented because it IS the contract:
#   state_{t+1} = (6364136223846793005 * state_t + 1442695040888963407) mod 2^64
#   draw(k) = (state >> 33) mod k
# with state_0 = one recurrence step applied to the seed.

_LCG_A = 6364136223846793005
_LCG_C = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


class _Lcg:
    def __init__(self, seed: int) -> None:
        self._state = (_LCG_A * (seed & _LCG_MASK) + _LCG_C) & _LCG_MASK

    def below(self, k: int) -> int:
        self._state = (_LCG_A * self._state + _LCG_C) & _LCG_MASK
        return (self._state >> 33) % k


def sample_train_subset(
    records: Sequence[LocationRecord], n: int, seed: int = 0
) -> list[LocationRecord]:
    """Draw n records without replacement, deterministically.

    Same seed, same input order => same subset in the same order, on any
    platform. ``n == len(records)`` returns the records in their
    original order (no shuffle).

    Raises:
        ValueError: n negative or larger than the input.
    """
    if n < 0 or n > len(records):
        raise ValueError(f"cannot sample {n} of {len(records)} records")
    if n == len(records):
        return list(records)
    rng = _Lcg(seed)
    indices = list(range(len(records)))
    for i in range(n):
        j = i + rng.below(len(indices) - i)
        indices[i], indices[j] = indices[j], indices[i]
    return [records[i] for i in indices[:n]]


# --- prediction persistence ----------------------------------------------


def prediction_to_obj(pred: Prediction) -> dict:
    return {
        "record_id": pred.record_id,
        "approach": pred.approach,
        "model": pred.model,
        "bbox": list(pred.bbox.as_tuple()) if pred.bbox is not None else None,
        "point": [pred.point.lat, pred.point.lon] if pred.point is not None else None,
        "raw_text": pred.raw_text,
        "recalled": [[name, geoinfo_to_obj(info)] for name, info in pred.recalled],
        "flags": list(pred.flags),
    }


def prediction_from_obj(obj: dict) -> Prediction:
    if not isinstance(obj, dict):
        raise TypeError(f"expected a JSON object, got {type(obj).__name__}")
    bbox = obj.get("bbox")
    bbox = bbox_from_obj(bbox) if bbox else None
    point = obj.get("point")
    if point:
        lat, lon = json_list(point, "point")
        point = GeoPoint(float(lat), float(lon))
    else:
        point = None
    # Positional, in field order (see record_from_obj).
    return Prediction(
        json_text(obj["record_id"], "record_id"),
        json_text(obj.get("approach"), "approach", ""),
        json_text(obj.get("model"), "model", ""),
        bbox,
        point,
        json_text(obj.get("raw_text"), "raw_text", ""),
        tuple(
            [
                (json_text(name, "recalled name"), geoinfo_from_obj(info))
                for name, info in json_list(obj.get("recalled", []), "recalled")
            ]
        ),
        tuple([json_text(f, "flags") for f in json_list(obj.get("flags", []), "flags")]),
    )


def write_predictions(predictions: Iterable[Prediction], path: str | os.PathLike) -> None:
    """Persist predictions as JSONL (atomically: all lines or none)."""
    atomic_write_jsonl(path, (prediction_to_obj(p) for p in predictions))


def read_predictions(path: str | os.PathLike) -> list[Prediction]:
    """Read predictions from JSONL; the first bad line raises DataError with its number."""
    def refuse(line_no: int, exc: Exception) -> None:
        raise DataError(f"predictions {path} line {line_no}: {exc}") from exc

    return read_jsonl(path, "predictions", prediction_from_obj, refuse)
