import json
import tracemalloc

import pytest

from fixtures import make_fixture_records
from geobox import BoundingBox, GeoInfo, GeoPoint, Prediction, format_bbox
from geobox.dataset import (
    DataError,
    LocationRecord,
    Mention,
    golds_by_id,
    load_dataset,
    prediction_from_obj,
    prediction_to_obj,
    read_predictions,
    record_from_obj,
    record_to_obj,
    sample_train_subset,
    write_dataset,
    write_predictions,
)
from geobox.prompts import PromptKind
from geobox.reasoner import build_prompt, export_finetune_jsonl

# --- record validation ---------------------------------------------------------


def _record(**kw):
    kw.setdefault("record_id", "x")
    kw.setdefault("description", "A lake near Oslo.")
    kw.setdefault("gold_bbox", BoundingBox(10, 59, 11, 60))
    return LocationRecord(**kw)


def test_record_requires_id_and_description():
    with pytest.raises(ValueError):
        _record(record_id="")
    with pytest.raises(ValueError):
        _record(description="   ")


def test_record_requires_boundingbox_type():
    with pytest.raises(ValueError):
        _record(gold_bbox=(10, 59, 11, 60))


def test_mention_must_be_a_span_of_the_description():
    _record(mentions=(Mention(name="Oslo"),))  # fine
    with pytest.raises(ValueError):
        _record(mentions=(Mention(name="Bergen"),))


def test_mention_name_nonempty():
    with pytest.raises(ValueError):
        Mention(name=" ")


def test_golds_by_id():
    records = make_fixture_records()
    golds = golds_by_id(records)
    assert len(golds) == 20
    assert golds["r01"] == records[0].gold_bbox


# --- JSONL round trip -------------------------------------------------------------


def test_record_obj_round_trip():
    for record in make_fixture_records():
        assert record_from_obj(record_to_obj(record)) == record


def test_dataset_file_round_trip(tmp_path):
    path = tmp_path / "data.jsonl"
    records = make_fixture_records()
    write_dataset(records, path)
    loaded, report = load_dataset(path)
    assert loaded == records
    assert report.n_loaded == 20
    assert report.n_skipped == 0


def _fail_after_first(records):
    yield records[0]
    raise RuntimeError("record source failed")


@pytest.mark.parametrize(
    "write",
    [write_dataset, lambda records, path: export_finetune_jsonl(records, "direct", path)],
    ids=["write_dataset", "export_finetune_jsonl"],
)
def test_writer_keeps_old_file_when_input_fails(write, tmp_path):
    path = tmp_path / "out.jsonl"
    records = make_fixture_records()
    write(records[:2], path)
    before = path.read_bytes()
    with pytest.raises(RuntimeError):
        write(_fail_after_first(records[5:]), path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_load_skips_bad_lines_and_reports_them(tmp_path):
    path = tmp_path / "data.jsonl"
    good = record_to_obj(make_fixture_records()[0])
    lines = [
        json.dumps(good),
        "not json at all",
        json.dumps({"id": "bad1", "description": "x"}),  # no gold_bbox
        json.dumps({"id": "bad2", "description": "x", "gold_bbox": [1, 2, 3]}),
        json.dumps(
            {"id": "bad3", "description": "x", "gold_bbox": [10, 5, 3, 12]}
        ),  # mis-ordered box
        json.dumps(
            {
                "id": "bad4",
                "description": "no such place here",
                "gold_bbox": [0, 0, 1, 1],
                "mentions": [{"name": "Elsewhere"}],
            }
        ),
        json.dumps(
            {"id": "bad5", "description": "x", "gold_bbox": [0, 0, 10**400, 1]}
        ),  # valid JSON, but too large for a float
        json.dumps(good),  # duplicate id, first wins
        "",
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    records, report = load_dataset(path)
    assert [r.record_id for r in records] == ["r01"]
    assert report.n_loaded == 1
    assert report.n_skipped == 7
    assert [line_no for line_no, _ in report.skipped] == [2, 3, 4, 5, 6, 7, 8]
    assert "duplicate id" in report.skipped[-1][1]


@pytest.mark.parametrize(
    ("mentions", "reason"),
    [
        (["Lausanne"], "expected a mention object, got str"),
        ("Lausanne", "mentions must be a list, got str"),
    ],
    ids=["list-of-str", "str"],
)
def test_load_skips_a_line_whose_mentions_are_not_objects(tmp_path, mentions, reason):
    path = tmp_path / "data.jsonl"
    good = record_to_obj(make_fixture_records()[0])
    bad = {"id": "bad", "description": "Lausanne", "gold_bbox": [0, 0, 1, 1], "mentions": mentions}
    path.write_text(f"{json.dumps(bad)}\n{json.dumps(good)}\n", encoding="utf-8")
    records, report = load_dataset(path)
    assert [r.record_id for r in records] == ["r01"]
    assert report.skipped == [(1, reason)]


@pytest.mark.parametrize(
    ("field", "value", "kind"),
    [
        ("mentions", "", "str"),
        ("mentions", {}, "dict"),
        ("recalled", {}, "dict"),
        ("point", "12", "str"),
    ],
    ids=["mentions-str", "mentions-object", "recalled-object", "point-str"],
)
def test_array_field_of_a_string_or_object_is_refused(field, value, kind):
    # Iterated, a string gives its characters and an object its keys.
    if field == "mentions":
        obj, from_obj = record_to_obj(make_fixture_records()[0]), record_from_obj
    else:
        obj, from_obj = prediction_to_obj(_predictions()[0]), prediction_from_obj
    with pytest.raises(TypeError, match=f"^{field} must be a list, got {kind}$"):
        from_obj({**obj, field: value})


def test_load_skips_a_line_with_a_lone_surrogate(tmp_path):
    path = tmp_path / "data.jsonl"
    good = record_to_obj(make_fixture_records()[0])
    bad = {**good, "id": "bad", "description": "\ud800 " + good["description"]}
    path.write_text(f"{json.dumps(bad)}\n{json.dumps(good)}\n", encoding="utf-8")
    records, report = load_dataset(path)
    assert [r.record_id for r in records] == ["r01"]
    assert [line_no for line_no, _ in report.skipped] == [1]


def test_load_rejects_unusable_dataset(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("not json\n", encoding="utf-8")
    with pytest.raises(DataError):
        load_dataset(empty)
    with pytest.raises(DataError):
        load_dataset(tmp_path / "missing.jsonl")


# --- deterministic subsampling ------------------------------------------------------


def test_sample_is_deterministic_and_frozen():
    records = make_fixture_records()
    got = sample_train_subset(records, 5, seed=0)
    assert [r.record_id for r in got] == ["r05", "r03", "r13", "r14", "r16"]
    again = sample_train_subset(records, 5, seed=0)
    assert got == again
    assert [r.record_id for r in sample_train_subset(records, 5, seed=1)] == [
        "r14",
        "r13",
        "r15",
        "r04",
        "r08",
    ]
    assert [r.record_id for r in sample_train_subset(records, 3, seed=42)] == [
        "r07",
        "r18",
        "r02",
    ]


def test_sample_without_replacement():
    records = make_fixture_records()
    for seed in range(10):
        got = sample_train_subset(records, 12, seed=seed)
        ids = [r.record_id for r in got]
        assert len(set(ids)) == len(ids) == 12


def test_sample_full_size_is_identity():
    records = make_fixture_records()
    assert sample_train_subset(records, len(records), seed=9) == records


def test_sample_edge_sizes():
    records = make_fixture_records()
    assert sample_train_subset(records, 0, seed=0) == []
    with pytest.raises(ValueError):
        sample_train_subset(records, 21, seed=0)
    with pytest.raises(ValueError):
        sample_train_subset(records, -1, seed=0)


# --- tuning export -------------------------------------------------------------------


def test_export_direct_rows_match_prompts(tmp_path):
    records = make_fixture_records()
    out = tmp_path / "sft.jsonl"
    stats = export_finetune_jsonl(records, "direct", out)
    assert stats.written == 20
    assert stats.skipped == 0
    rows = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    assert len(rows) == 20
    for row, record in zip(rows, records):
        request = build_prompt(
            PromptKind.DIRECT_BOX, model="", description=record.description, few_shot=False
        )
        assert row == {
            "system": request.system,
            "user": request.user,
            "assistant": format_bbox(record.gold_bbox),
        }
        assert "Here are some examples" not in row["system"]


def test_export_geoaug_rows_and_skips(tmp_path):
    records = list(make_fixture_records())
    records.append(
        LocationRecord(
            record_id="bare",
            description="An unannotated mention of Lisbon.",
            gold_bbox=BoundingBox(-10, 38, -8, 39),
            mentions=(Mention(name="Lisbon"),),
        )
    )
    out = tmp_path / "sft.jsonl"
    stats = export_finetune_jsonl(records, "geoaug-oracle", out)
    assert stats.written == 20
    assert stats.skipped == 1
    rows = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    for row, record in zip(rows, records[:20]):
        recalled = [(m.name, m.gold) for m in record.mentions]
        request = build_prompt(
            PromptKind.GEO_AUGMENTED_BOX,
            model="",
            description=record.description,
            recalled=recalled,
            few_shot=False,
        )
        assert row["user"] == request.user
        assert "has a longitude of" in row["user"]
        assert row["assistant"] == format_bbox(record.gold_bbox)


def test_export_rejects_unknown_approach(tmp_path):
    with pytest.raises(ValueError):
        export_finetune_jsonl(make_fixture_records(), "end-to-end", tmp_path / "x.jsonl")


# --- prediction persistence ----------------------------------------------------------


def _predictions():
    info = GeoInfo(
        name="Oman",
        center=GeoPoint(lat=21.0000287, lon=57.0),
        country="Oman",
        bbox=BoundingBox(52.0, 16.6, 59.8, 26.4),
        source_id="p-1",
    )
    return [
        Prediction(
            record_id="r01",
            approach="geoaug-oracle",
            model="m",
            bbox=BoundingBox(51.197, 21.0, 63.003, 32.648),
            raw_text="**(51.197, 21.000, 63.003, 32.648)**",
            recalled=(("Oman", info),),
            flags=(),
        ),
        Prediction(
            record_id="r02",
            approach="knowledge-point",
            model="m",
            point=GeoPoint(lat=-14.243, lon=-53.189),
            raw_text="(-14.243, -53.189)",
        ),
        Prediction(
            record_id="r03",
            approach="direct",
            model="m",
            raw_text="I cannot tell.",
            flags=("no_parse",),
        ),
    ]


def test_prediction_obj_round_trip():
    for pred in _predictions():
        assert prediction_from_obj(prediction_to_obj(pred)) == pred


def test_prediction_file_round_trip(tmp_path):
    path = tmp_path / "preds.jsonl"
    predictions = _predictions()
    write_predictions(predictions, path)
    assert read_predictions(path) == predictions


def test_write_predictions_holds_one_line_at_a_time(tmp_path):
    path = tmp_path / "preds.jsonl"
    raw_text = "Lake Geneva lies between Lausanne and \u00c9vian. " * 2000  # about 100 KB
    predictions = [
        Prediction(record_id=f"r{i:03d}", approach="direct", model="m", raw_text=raw_text)
        for i in range(200)
    ]
    tracemalloc.start()
    try:
        write_predictions(predictions, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1024 * 1024
    assert read_predictions(path) == predictions


def test_read_predictions_rejects_bad_line(tmp_path):
    path = tmp_path / "preds.jsonl"
    path.write_text('{"record_id": "a"}\nnot json\n', encoding="utf-8")
    with pytest.raises(DataError):
        read_predictions(path)


def test_read_predictions_rejects_a_number_too_large_for_a_float(tmp_path):
    path = tmp_path / "preds.jsonl"
    bad = {**prediction_to_obj(_predictions()[0]), "bbox": [0, 0, 10**400, 1]}
    path.write_text(json.dumps(bad) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match="line 1: int too large to convert to float"):
        read_predictions(path)


@pytest.mark.parametrize(
    "flags, kind",
    [("invalid_range", "str"), ({"invalid_range": True}, "dict")],
    ids=["string", "object"],
)
def test_read_predictions_refuses_flags_that_are_not_a_list(tmp_path, flags, kind):
    # iterated, a string gives one flag per character and an object its keys
    good = prediction_to_obj(_predictions()[0])
    path = tmp_path / "preds.jsonl"
    lines = [json.dumps(good), json.dumps({**good, "flags": flags})]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(DataError) as refused:
        read_predictions(path)
    assert str(refused.value) == f"predictions {path} line 2: flags must be a list, got {kind}"


def test_read_predictions_refuses_a_lone_surrogate(tmp_path):
    good = prediction_to_obj(_predictions()[0])
    path = tmp_path / "preds.jsonl"
    lines = [json.dumps(good), json.dumps({**good, "raw_text": "\ud800"})]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match="line 2: 'utf-8' codec can't encode"):
        read_predictions(path)


@pytest.mark.parametrize(
    "field, bad",
    [
        ("bbox", [1, 2, 3, 4, 5]),
        ("bbox", [1, 2, 3]),
        ("bbox", "1,2,3,4"),
        ("recalled", [["Oman", {"name": "Oman", "lat": 21.0, "lon": 57.0, "bbox": [52, 16]}]]),
    ],
)
def test_read_predictions_names_the_bbox_shape(tmp_path, field, bad):
    obj = {**prediction_to_obj(_predictions()[0]), field: bad}
    path = tmp_path / "preds.jsonl"
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    shape = r"line 1: bbox must be \[lon_min, lat_min, lon_max, lat_max\]"
    with pytest.raises(DataError, match=shape):
        read_predictions(path)
