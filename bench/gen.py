"""Seeded inputs for the geobox benchmark and the outcomes they must produce.

Every file written here is a pure function of the seed, so one command
regenerates all inputs of a run:

    python3 bench/gen.py --workload cold-run --seed 7 --out bench/work/inputs-7

Two input sets come out of one seed:

* the run set (``dataset.jsonl`` + ``truth.json``) for ``geobox run``:
  records whose descriptions name 2 to 4 places drawn from a shared pool
  of synthetic names. The endpoint simulator (``sim.py``) answers from
  ``truth.json``, and ``expected_run`` says, from the same truth, which
  box, flags and recalled mentions each record must end with;
* the rescore set (``rescore_dataset.jsonl`` + ``rescore_predictions.jsonl``)
  for ``geobox eval`` and ``geobox analyze``: predictions planted in
  classes whose probe counts are known exactly.

Geometry used for expectations lives in ``check.py``, written apart from
the package's own ``geo``/``metrics`` code.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re

import check

MODEL = "sim-reasoner"
APPROACH = "end-to-end"

N_NAMES = 160
N_REGIONS = 16
# Planted share of each run-set fault kind; the count per kind is exact
# (share * records, rounded), so every seed carries the same mix.
RUN_FAULT_SHARE = {"no_tuple": 0.04, "bad_range": 0.04, "bad_mention": 0.05}
# Exact share of records one of whose two calls the simulator refuses
# with HTTP 503 on its first attempt, so the client retries it once.
RETRY_SHARE = 0.05
# Filler steps in each reasoner transcript; about 4.3 KB of text in all.
TRANSCRIPT_STEPS = 24

# Rescore classes and their exact shares; "partial" takes the rest.
RESCORE_SHARE = {
    "exact": 0.05,
    "inside": 0.12,
    "contains": 0.12,
    "sign_lon": 0.04,
    "sign_lat": 0.04,
    "sign_both": 0.04,
    "miss": 0.05,
    "copy": 0.05,
    "copy_loose": 0.04,
    "invalid_order": 0.03,
    "invalid_range": 0.03,
    "invalid_both": 0.02,
    "no_parse": 0.03,
}

_ONSETS = ["b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z", "br", "kr", "st", "tr"]
_VOWELS = ["a", "e", "i", "o", "u", "ai", "ou"]
_SUFFIXES = ["Falls", "Ridge", "Harbor", "Crossing", "Springs", "Mill", "Point", "Hollow", "Bay", "Fort"]
_FEATURES = ["lake", "valley", "plateau", "marsh", "forest", "bay", "canyon", "island", "pass", "basin"]
_SHAPES = ["narrow", "crescent-shaped", "broad", "winding", "terraced", "sheltered", "remote", "shallow"]
_RELATIONS = ["between", "among", "south of the line joining", "within sight of", "upstream of"]
_EXTRAS = [
    "It is known for its {n} wooden bridges.",
    "Its shore is about {n} km long.",
    "The area was first mapped in {y}.",
    "Roughly {n} families farm its edges.",
]


def _round(v: float) -> float:
    return round(v, 4)


def fmt4(v: float) -> str:
    """Coordinate text the simulator writes; parses back to ``_round(v)`` exactly."""
    return f"{v:.4f}"


# --- run set ---------------------------------------------------------------


def _name_pool(rng: random.Random) -> list[str]:
    names: list[str] = []
    seen_words: set[str] = set()
    while len(names) < N_NAMES:
        word = "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS) for _ in range(rng.randint(2, 3)))
        word = word.capitalize()
        if word in seen_words:
            continue
        seen_words.add(word)
        names.append(f"{word} {rng.choice(_SUFFIXES)}")
    for a in names:
        for b in names:
            if a != b and a in b:
                raise AssertionError(f"pool name {a!r} occurs inside {b!r}")
    return names


def derive_box(centers: list[tuple[float, float]], margin: float) -> tuple[float, ...]:
    """The box the simulated reasoner answers with: the centers' extremes plus a margin."""
    lons = [lon for lon, _ in centers]
    lats = [lat for _, lat in centers]
    return (
        _round(min(lons) - margin),
        _round(min(lats) - margin),
        _round(max(lons) + margin),
        _round(max(lats) + margin),
    )


def make_run_set(seed: int, n_records: int) -> tuple[list[dict], list[dict]]:
    """Dataset rows and the per-record truth the simulator and checks share."""
    rng = random.Random(f"run-{seed}")
    names = _name_pool(rng)
    regions = [(rng.uniform(-150.0, 150.0), rng.uniform(-50.0, 60.0)) for _ in range(N_REGIONS)]
    place = {}
    for i, name in enumerate(names):
        lon0, lat0 = regions[i % N_REGIONS]
        place[name] = (_round(lon0 + rng.uniform(-3.0, 3.0)), _round(lat0 + rng.uniform(-3.0, 3.0)))
    by_region = [names[r::N_REGIONS] for r in range(N_REGIONS)]

    faults = ["none"] * n_records
    slots = list(range(n_records))
    rng.shuffle(slots)
    for kind, share in RUN_FAULT_SHARE.items():
        for _ in range(round(share * n_records)):
            faults[slots.pop()] = kind
    retry = [None] * n_records
    for entry in rng.sample(range(n_records), round(RETRY_SHARE * n_records)):
        retry[entry] = rng.choice(["recaller", "reasoner"])

    rows, truth = [], []
    for entry in range(n_records):
        chosen = rng.sample(by_region[rng.randrange(N_REGIONS)], rng.randint(2, 4))
        rel = rng.choice(_RELATIONS)
        head = f"Survey entry {entry} describes the {rng.choice(_SHAPES)} {rng.choice(_FEATURES)} that lies {rel} "
        listed = ", ".join(chosen[:-1]) + f" and {chosen[-1]}"
        extra = rng.choice(_EXTRAS).format(n=rng.randint(2, 90), y=rng.randint(1700, 1990))
        description = f"{head}{listed}. {extra}"
        positions = [description.find(n) for n in chosen]
        if positions != sorted(positions) or positions[0] < len(head):
            raise AssertionError(f"entry {entry}: mention order not recoverable")

        centers = [place[n] for n in chosen]
        gold = [
            _round(min(c[0] for c in centers) - rng.uniform(0.1, 1.0)),
            _round(min(c[1] for c in centers) - rng.uniform(0.1, 1.0)),
            _round(max(c[0] for c in centers) + rng.uniform(0.1, 1.0)),
            _round(max(c[1] for c in centers) + rng.uniform(0.1, 1.0)),
        ]
        record_id = f"r{entry:06d}"
        rows.append(
            {
                "id": record_id,
                "description": description,
                "gold_bbox": gold,
                "mentions": [{"name": n, "lat": place[n][1], "lon": place[n][0]} for n in chosen],
            }
        )
        truth.append(
            {
                "id": record_id,
                "description": description,
                "mentions": [[n, place[n][0], place[n][1]] for n in chosen],
                "fault": faults[entry],
                "retry": retry[entry],
                "bad": rng.randrange(len(chosen)),
                "margin": _round(rng.uniform(0.05, 0.6)),
            }
        )
    return rows, truth


def recaller_reply(t: dict) -> str:
    """Mention sentences for one record; a ``bad_mention`` record gets one impossible latitude."""
    parts = ["Here are the coordinates of the places mentioned in the paragraph."]
    for i, (name, lon, lat) in enumerate(t["mentions"]):
        if t["fault"] == "bad_mention" and i == t["bad"]:
            lat = _round(91.0 + abs(lat) / 10.0)
        parts.append(f"{name} has a longitude of {fmt4(lon)} and latitude of {fmt4(lat)}.")
    return " ".join(parts)


def reasoner_reply(t: dict, shown: list[tuple[str, float, float]]) -> str:
    """A multi-KB transcript over the mentions shown in the prompt, ending in a box.

    It quotes many numbers, single-number parentheses and a 2-tuple, and,
    unless the record plants ``no_tuple``, a draft 4-tuple before the
    final one, so only the last 4-tuple may be taken as the answer.
    """
    centers = [(lon, lat) for _, lon, lat in shown]
    box = derive_box(centers, t["margin"]) if centers else None
    out = ["Let me reason about this location step by step."]
    for name, lon, lat in shown:
        out.append(
            f"The prompt places {name} at longitude {lon} and latitude {lat} "
            f"(about {abs(lat) * 111.2:.1f} km from the equator)."
        )
    if box is not None and t["fault"] != "no_tuple":
        draft = (box[0] + 0.1, box[1] + 0.1, box[2] - 0.05, box[3] - 0.05)
        out.append(f"A first draft box is ({', '.join(fmt4(v) for v in draft)}), which looks too tight.")
    lon0, lat0 = centers[0] if centers else (0.0, 0.0)
    for step in range(TRANSCRIPT_STEPS):
        width = t["margin"] * (step + 1) / TRANSCRIPT_STEPS
        out.append(
            f"Step {step + 1}: widening by {width:.4f} degrees (roughly {width * 111.2:.2f} km) "
            f"keeps the anchor at ({fmt4(lat0)}, {fmt4(lon0)}) inside and leaves {step + 3} "
            f"landmarks (checked {2 * step + 1} times) within reach."
        )
    if box is None or t["fault"] == "no_tuple":
        out.append(f"I cannot commit to exact bounds; the centre is near {fmt4(lon0)}, {fmt4(lat0)}.")
        return "\n".join(out)
    final = list(box)
    if t["fault"] == "bad_range":
        final[3] = _round(91.0 + abs(final[3]) / 10.0)
    out.append(f"So the bounding box is ({', '.join(fmt4(v) for v in final)}).")
    return "\n".join(out)


_SHOWN_RE = re.compile(
    r"\s*([^.]+?) has a longitude of (-?\d+(?:\.\d+)?) and latitude of (-?\d+(?:\.\d+)?)\."
)


def shown_mentions(sentences: str) -> list[tuple[str, float, float]]:
    """Parse the mention sentences geobox appended to a reasoner prompt."""
    return [(m.group(1), float(m.group(2)), float(m.group(3))) for m in _SHOWN_RE.finditer(sentences)]


def expected_run(truth: list[dict]) -> list[dict]:
    """Each record's prediction as it must appear in geobox's predictions file."""
    out = []
    for t in truth:
        shown = [
            (name, lon, lat)
            for i, (name, lon, lat) in enumerate(t["mentions"])
            if not (t["fault"] == "bad_mention" and i == t["bad"])
        ]
        flags: list[str] = []
        if t["fault"] == "bad_mention":
            flags.append(f"invalid_mention:{t['mentions'][t['bad']][0]}")
        bbox = None
        if t["fault"] == "no_tuple":
            flags.append("no_parse")
        elif t["fault"] == "bad_range":
            flags.append("invalid_range")
        else:
            bbox = list(derive_box([(lon, lat) for _, lon, lat in shown], t["margin"]))
        out.append(
            {
                "record_id": t["id"],
                "approach": APPROACH,
                "model": MODEL,
                "bbox": bbox,
                "point": None,
                "raw_text": reasoner_reply(t, shown),
                "recalled": [[n, {"name": n, "lat": lat, "lon": lon}] for n, lon, lat in shown],
                "flags": flags,
            }
        )
    return out


# --- rescore set -----------------------------------------------------------


def _class_list(rng: random.Random, n: int) -> list[str]:
    classes: list[str] = []
    for kind, share in RESCORE_SHARE.items():
        classes += [kind] * round(share * n)
    classes += ["partial"] * (n - len(classes))
    rng.shuffle(classes)
    return classes


def _rescore_pred(rng: random.Random, kind: str, gold: list[float]) -> tuple[list | None, list, list]:
    """(bbox, recalled, flags) for one planted class."""
    lo_x, lo_y, hi_x, hi_y = gold
    w, h = hi_x - lo_x, hi_y - lo_y
    if kind == "exact":
        return list(gold), [], []
    if kind == "inside":
        f = [rng.uniform(0.15, 0.35) for _ in range(4)]
        return [lo_x + f[0] * w, lo_y + f[1] * h, hi_x - f[2] * w, hi_y - f[3] * h], [], []
    if kind == "contains":
        f = [rng.uniform(0.2, 0.5) for _ in range(4)]
        box = [lo_x - f[0] * w, lo_y - f[1] * h, hi_x + f[2] * w, hi_y + f[3] * h]
        bw, bh = box[2] - box[0], box[3] - box[1]
        # centers well inside the box: no edge is a copy of an extreme
        recalled = [
            (box[0] + 0.3 * bw, box[1] + 0.35 * bh),
            (box[0] + 0.7 * bw, box[1] + 0.65 * bh),
        ]
        return box, recalled, []
    if kind == "partial":
        dx = rng.choice([-1, 1]) * rng.uniform(0.2, 0.5) * w
        return [lo_x + dx, lo_y - 0.25 * h, hi_x + dx, hi_y + 0.25 * h], [], []
    if kind.startswith("sign_"):
        inner = [lo_x + 0.1 * w, lo_y + 0.1 * h, hi_x - 0.1 * w, hi_y - 0.1 * h]
        x0, y0, x1, y1 = inner
        if kind in ("sign_lon", "sign_both"):
            x0, x1 = -x1, -x0
        if kind in ("sign_lat", "sign_both"):
            y0, y1 = -y1, -y0
        return [x0, y0, x1, y1], [], []
    if kind == "miss":
        dx = 40.0 if lo_x > 0 else -40.0
        return [lo_x + dx, lo_y, hi_x + dx, hi_y], [], []
    if kind in ("copy", "copy_loose"):
        pts = [
            (lo_x + rng.uniform(0.1, 0.3) * w, lo_y + rng.uniform(0.1, 0.3) * h),
            (hi_x - rng.uniform(0.1, 0.3) * w, hi_y - rng.uniform(0.1, 0.3) * h),
            (lo_x + 0.5 * w, lo_y + 0.5 * h),
        ]
        # edges sit 0.004 or 0.05 deg off the extremes, far from the 0.01
        # and 0.1 deg probe tolerances; the box stays inside the gold box
        eps = 0.004 if kind == "copy" else 0.05
        box = [
            min(p[0] for p in pts) - eps,
            min(p[1] for p in pts) - eps,
            max(p[0] for p in pts) + eps,
            max(p[1] for p in pts) + eps,
        ]
        return box, pts, []
    if kind == "invalid_order":
        return None, [], ["invalid_order"]
    if kind == "invalid_range":
        return None, [], ["invalid_range"]
    if kind == "invalid_both":
        return None, [], ["invalid_order", "invalid_range"]
    if kind == "no_parse":
        return None, [], ["no_parse"]
    raise ValueError(kind)


def make_rescore_set(seed: int, n_records: int) -> tuple[list[dict], list[dict], dict]:
    """Dataset rows, prediction rows, and the probe counts they must yield."""
    rng = random.Random(f"rescore-{seed}")
    classes = _class_list(rng, n_records)
    rows, preds = [], []
    for i, kind in enumerate(classes):
        # boxes keep clear of the equator and the prime meridian, so a
        # sign flip never overlaps its own gold box
        w, h = rng.uniform(0.8, 4.0), rng.uniform(0.8, 3.0)
        cx = rng.choice([-1, 1]) * rng.uniform(10.0, 120.0)
        cy = rng.choice([-1, 1]) * rng.uniform(10.0, 70.0)
        gold = [_round(cx - w / 2), _round(cy - h / 2), _round(cx + w / 2), _round(cy + h / 2)]
        bbox, recalled, flags = _rescore_pred(rng, kind, gold)
        if bbox is not None:
            bbox = [_round(v) for v in bbox]
        record_id = f"s{i:06d}"
        rows.append({"id": record_id, "description": f"Rescore record {i} lies somewhere.", "gold_bbox": gold, "mentions": []})
        text = f"Working over record {i}: the answer box is " + (
            f"({', '.join(fmt4(v) for v in bbox)})." if bbox is not None else "not clear."
        )
        preds.append(
            {
                "record_id": record_id,
                "approach": APPROACH,
                "model": MODEL,
                "bbox": bbox,
                "point": None,
                "raw_text": text * 3,
                "recalled": [
                    [f"Anchor {k}", {"name": f"Anchor {k}", "lat": _round(y), "lon": _round(x)}]
                    for k, (x, y) in enumerate(recalled)
                ],
                "flags": flags,
            }
        )
    probes = check.probe_counts(preds, {r["id"]: r["gold_bbox"] for r in rows})
    planted = _planted_counts(classes)
    for key, want in planted.items():
        if probes[key] != want:
            raise AssertionError(f"rescore seed {seed}: {key} is {probes[key]}, planted {want}")
    return rows, preds, probes


def _planted_counts(classes: list[str]) -> dict[str, int]:
    count = {k: classes.count(k) for k in set(classes) | set(RESCORE_SHARE)}
    return {
        "sign_flip_suspects": count["sign_lon"] + count["sign_lat"] + count["sign_both"],
        "coord_copy_suspects": count["copy"],
        "coord_copy_suspects_loose": count["copy"] + count["copy_loose"],
        "invalid_parse": count["invalid_order"] + count["invalid_range"] + count["invalid_both"],
        "out_of_range_parse": count["invalid_range"] + count["invalid_both"],
    }


# --- files -----------------------------------------------------------------

# Records per round of each workload.
RECORDS = {"cold-run": 240, "warm-run": 1000, "rescore": 20000}


def write_jsonl(path: str, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def planted_retries(truth: list[dict]) -> int:
    """Calls the simulator refuses once per run: the retries a run must make."""
    return sum(t["retry"] is not None for t in truth)


def write_run_set(out_dir: str, seed: int, n_records: int) -> tuple[list[dict], list[dict]]:
    """Write ``dataset.jsonl`` and ``truth.json``; return their contents."""
    rows, truth = make_run_set(seed, n_records)
    write_jsonl(os.path.join(out_dir, "dataset.jsonl"), rows)
    with open(os.path.join(out_dir, "truth.json"), "w", encoding="utf-8") as fh:
        json.dump(truth, fh)
    return rows, truth


def write_rescore_set(out_dir: str, seed: int, n_records: int) -> tuple[list[dict], list[dict], dict]:
    """Write ``rescore_dataset.jsonl`` and ``rescore_predictions.jsonl``; return them and the probe counts."""
    rows, preds, probes = make_rescore_set(seed, n_records)
    write_jsonl(os.path.join(out_dir, "rescore_dataset.jsonl"), rows)
    write_jsonl(os.path.join(out_dir, "rescore_predictions.jsonl"), preds)
    return rows, preds, probes


def main() -> None:
    parser = argparse.ArgumentParser(description="Write the inputs of one workload for one seed.")
    parser.add_argument("--workload", required=True, choices=sorted(RECORDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)
    if args.workload == "rescore":
        write_rescore_set(args.out, args.seed, RECORDS["rescore"])
    else:
        write_run_set(args.out, args.seed, RECORDS[args.workload])


if __name__ == "__main__":
    main()
