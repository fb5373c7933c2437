"""Byte-level goldens for `geobox run`, one per approach.

Each approach runs over the fixture records against the chat and
geocoder stubs with one fixed script, and the predictions file and the
`--report-out` file must match the checked-in goldens byte for byte.
The script exercises every recall outcome: gold, gazetteer hits
overriding gold, gold fallback, misses, geocoder viewports (one of them
unusable), invalid recaller coordinates and degraded prompts. Every
reply ends with a digest of the user message it answers, so a change in
prompt assembly shows in `raw_text` as well.
"""

import dataclasses
import hashlib
import json

import pytest

from fixtures import GOLDEN_DIR, make_fixture_records
from stubs import ChatStub, GeocoderStub
from geobox import BoundingBox, GazetteerStore, GeoInfo, GeoPoint, format_bbox
from geobox.cli import EXIT_OK, main
from geobox.dataset import write_dataset
from geobox.pipeline import Approach

APPROACH_GOLDEN_DIR = GOLDEN_DIR / "approaches"


class DigestChatStub(ChatStub):
    """ChatStub whose replies end with a digest of the user message."""

    def reply_for(self, user_text: str) -> str:
        digest = hashlib.sha256(user_text.encode("utf-8")).hexdigest()[:16]
        return f"{super().reply_for(user_text)} [prompt {digest}]"


def golden_records():
    """The fixture records with some gold removed and some gold enriched."""
    records = make_fixture_records()
    by_id = {r.record_id: r for r in records}

    def strip_gold(record_id, *names):
        record = by_id[record_id]
        mentions = tuple(
            dataclasses.replace(m, gold=None) if m.name in names else m for m in record.mentions
        )
        by_id[record_id] = dataclasses.replace(record, mentions=mentions)

    strip_gold("r03", "Antarctica")
    strip_gold("r11", "Bolzano")
    strip_gold("r16", "Ulaanbaatar", "Karakorum")
    galveston = by_id["r02"]
    enriched = tuple(
        dataclasses.replace(
            m,
            gold=dataclasses.replace(
                m.gold, country="United States", bbox=BoundingBox(-95.2, 29.1, -94.6, 29.6)
            ),
        )
        if m.name == "Galveston"
        else m
        for m in galveston.mentions
    )
    by_id["r02"] = dataclasses.replace(galveston, mentions=enriched)
    return [by_id[r.record_id] for r in records]


def golden_gazetteer():
    """Gazetteer rows: some override gold, one fills a stripped gold, one is all fields."""
    return GazetteerStore(
        [
            GeoInfo(
                name="Oman",
                center=GeoPoint(lat=21.5, lon=57.5),
                country="Oman",
                bbox=BoundingBox(52.0, 16.6, 59.8, 26.4),
                source_id="gaz-1",
            ),
            GeoInfo(name="Bolzano", center=GeoPoint(lat=46.5, lon=11.35), country="Italy"),
            GeoInfo(name="Seattle", center=GeoPoint(lat=47.61, lon=-122.33), source_id="gaz-3"),
        ]
    )


def _shifted(box: BoundingBox, d: float) -> BoundingBox:
    """The box moved d degrees west and south (fixture boxes touch 180E, not 180W)."""
    return BoundingBox(box.lon_min - d, box.lat_min - d, box.lon_max - d, box.lat_max - d)


def _description_reply(index: int, record) -> str:
    """Recaller sentences plus a final box, varied by record position.

    ``record`` is the unmodified fixture record, so every mention has gold.
    """
    sentences = [
        f"{m.name} has a longitude of {m.gold.center.lon + 0.25 * (index % 3):.4f} "
        f"and latitude of {m.gold.center.lat:.4f}."
        for m in record.mentions
    ]
    if index % 7 == 3:
        sentences.append("Nowhere has a longitude of 200.000 and latitude of 95.000.")
    if index % 6 == 5:
        sentences = []
    if index == 2:
        box_text = "no box can be given"
    elif index == 3:
        box_text = "(185.000, 10.000, 190.000, 20.000)"
    elif index == 4:
        box_text = "(10.000, 5.000, 3.000, 12.000)"
    elif index % 4 == 0:
        box_text = format_bbox(record.gold_bbox)
    else:
        box_text = format_bbox(_shifted(record.gold_bbox, 0.1 * (index % 4)))
    return " ".join(sentences) + f" So the box is {box_text}."


def _knowledge_reply(index: int, record) -> str:
    box = record.gold_bbox
    lat = (box.lat_min + box.lat_max) / 2.0
    lon = (box.lon_min + box.lon_max) / 2.0
    if index % 5 == 1:
        return "I do not know this place."
    if index % 5 == 2:
        return f"Center ({lat + 100.0:.3f}, {lon:.3f}), box {format_bbox(_shifted(box, 0.3))}."
    return f"Center ({lat:.3f}, {lon:.3f}), box {format_bbox(_shifted(box, 0.05 * index))}."


def script_chat(stub: ChatStub, records) -> None:
    """Knowledge rules first: their inputs never contain a description."""
    for index, record in enumerate(records):
        if record.gold_name is not None:
            stub.script(f"Input: {record.gold_name}", _knowledge_reply(index, record))
    for index, record in enumerate(make_fixture_records()):
        stub.script(record.description, _description_reply(index, record))


def script_geocoder(stub: GeocoderStub) -> None:
    stub.add("Arabian Sea", lat=14.0, lng=63.5, viewport=(51.0, 0.0, 77.0, 25.0))
    stub.add("Oman", lat=21.0000287, lng=57.0)
    stub.add("Galveston", lat=29.3, lng=-94.8, viewport=(-95.2, 29.1, -94.6, 29.6))
    # A viewport that wraps the antimeridian: the client keeps the center only.
    stub.add("Fiji", lat=-17.8, lng=178.0, viewport=(177.0, -21.0, -178.0, -12.0))
    stub.add("Florence", lat=43.77, lng=11.26, place_id="florence-1")
    stub.add("Siena", lat=43.32, lng=11.33)
    stub.add("Helsinki", lat=60.17, lng=24.94)


def run_approach(approach: Approach, tmp_path) -> tuple[int, bytes, bytes]:
    """Run one approach through the CLI; return (exit code, predictions, report)."""
    records = golden_records()
    dataset = tmp_path / "dataset.jsonl"
    write_dataset(records, dataset)
    gazetteer = tmp_path / "gazetteer.jsonl"
    golden_gazetteer().save(gazetteer)
    preds = tmp_path / "preds.jsonl"
    report = tmp_path / "report.json"
    with DigestChatStub() as chat, GeocoderStub() as geocoder:
        script_chat(chat, records)
        script_geocoder(geocoder)
        code = main(
            [
                "run",
                "--approach", approach.value,
                "--model", "golden-m",
                "--recaller-model", "golden-recaller",
                "--dataset", str(dataset),
                "--gazetteer", str(gazetteer),
                "--geocoder-endpoint", geocoder.base_url,
                "--llm-base", chat.base_url,
                "--predictions", str(preds),
                "--report-out", str(report),
                "--retries", "0",
                "--backoff", "0",
            ]
        )
    return code, preds.read_bytes(), report.read_bytes()


@pytest.mark.parametrize("approach", list(Approach), ids=lambda a: a.value)
def test_approach_outputs_match_goldens(approach, tmp_path):
    code, preds, report = run_approach(approach, tmp_path)
    assert code == EXIT_OK
    assert preds == (APPROACH_GOLDEN_DIR / f"{approach.value}.predictions.jsonl").read_bytes()
    assert report == (APPROACH_GOLDEN_DIR / f"{approach.value}.report.json").read_bytes()
    # the goldens are not vacuous: each approach covers some records, misses others
    summary = json.loads(report)
    assert 0 < summary["n_covered"] < summary["n_total"] == 20
