"""Text fields read JSON strings and numbers, never the repr of another value.

Every loader reads its text fields through ``jsonio.json_text``: a
string as is, a number as its digits, ``null`` as the field's default
when it has one. Anything else (``null`` in a required field, a boolean,
a list, an object) is refused with the field named: a dataset or
gazetteer line is skipped with a warning, a predictions line is a
``DataError`` naming the line, and a stored report exits 2. Also here:
the query of a chat base URL stays after ``/chat/completions``, and
``GazetteerStore.load`` refuses an unreadable file with ``DataError``.
"""

import json
import logging
import re

import pytest

from geobox import GazetteerStore
from geobox.cli import EXIT_DATA, main
from geobox.dataset import DataError, load_dataset, read_predictions
from geobox.jsonio import json_text
from geobox.reasoner import ChatClient, ChatRequest

_REC = {
    "id": "r1",
    "description": "A lake near Oslo.",
    "gold_bbox": [10, 59, 11, 60],
    "gold_name": "Lake",
    "gold_country": "NO",
    "mentions": [{"name": "Oslo", "lat": 59.9, "lon": 10.7, "country": "NO", "id": "g1"}],
}
_PRED = {
    "record_id": "p1",
    "approach": "direct",
    "model": "m",
    "bbox": [1.0, 2.0, 3.0, 4.0],
    "raw_text": "(1, 2, 3, 4)",
    "recalled": [["A", {"name": "A", "lat": 2.5, "lon": 1.5, "country": "X", "id": "g1"}]],
    "flags": ["recall_miss:B"],
}
_PLACE = {"name": "Oslo", "lat": 59.9, "lon": 10.7, "country": "NO", "id": "g1"}

_NOT_TEXT = {"true": True, "false": False, "list": ["Lausanne", "x"], "object": {"a": 1}}


def _lines(path, *objs):
    path.write_text("".join(json.dumps(obj) + "\n" for obj in objs), encoding="utf-8")
    return path


def _mention(**fields):
    return {**_REC, "mentions": [{**_REC["mentions"][0], **fields}]}


def _recalled(**fields):
    return {**_PRED, "recalled": [["A", {**_PRED["recalled"][0][1], **fields}]]}


@pytest.mark.parametrize(
    "value, want",
    [("Oslo", "Oslo"), ("", ""), (7, "7"), (-0.5, "-0.5"), (None, "dflt")],
)
def test_json_text_reads_strings_numbers_and_null(value, want):
    assert json_text(value, "f", "dflt") == want


@pytest.mark.parametrize("value", [None, *_NOT_TEXT.values()], ids=["null", *_NOT_TEXT])
def test_json_text_refuses_other_values_naming_the_field(value):
    with pytest.raises(TypeError, match=f"^some_field must be text, got {type(value).__name__}$"):
        json_text(value, "some_field")


# --- dataset: a bad line is skipped, with the field named --------------------------

_DATASET_CASES = {
    "description-list": ({**_REC, "description": ["Lausanne", "x"]}, "description"),
    "id-null": ({**_REC, "id": None}, "id"),
    "id-true": ({**_REC, "id": True}, "id"),
    "gold-name-object": ({**_REC, "gold_name": {"a": 1}}, "gold_name"),
    "gold-country-false": ({**_REC, "gold_country": False}, "gold_country"),
    "mention-name-list": (_mention(name=["Oslo"]), "name"),
    "mention-name-null": (_mention(name=None), "name"),
    "mention-country-list": (_mention(country=["NO"]), "country"),
    "mention-id-object": (_mention(id={"a": 1}), "id"),
}


@pytest.mark.parametrize("case", sorted(_DATASET_CASES))
def test_dataset_skips_a_line_whose_text_field_is_not_text(tmp_path, caplog, case):
    bad, field = _DATASET_CASES[case]
    path = _lines(tmp_path / "data.jsonl", bad, {**_REC, "id": "r2"})
    with caplog.at_level(logging.WARNING):
        records, report = load_dataset(path)
    assert [r.record_id for r in records] == ["r2"]
    assert [line_no for line_no, _ in report.skipped] == [1]
    assert report.skipped[0][1].startswith(f"{field} must be text, got ")
    assert f"dataset {path} line 1 skipped: {field} must be text" in caplog.text


def test_dataset_numbers_and_optional_nulls_load_as_before(tmp_path):
    path = _lines(
        tmp_path / "data.jsonl",
        {**_REC, "id": 7, "gold_name": None, "gold_country": None},
        {**_mention(id=12, country=None), "id": 8.5},
    )
    first, second = load_dataset(path)[0]
    assert (first.record_id, first.gold_name, first.gold_country) == ("7", None, None)
    assert second.record_id == "8.5"
    assert (second.mentions[0].gold.source_id, second.mentions[0].gold.country) == ("12", None)


# --- gazetteer: a bad line is skipped, with the field named ------------------------


@pytest.mark.parametrize(
    "fields, field",
    [
        ({"name": None}, "name"),
        ({"name": ["Oslo"]}, "name"),
        ({"country": True}, "country"),
        ({"id": {"a": 1}}, "id"),
    ],
    ids=["name-null", "name-list", "country-true", "id-object"],
)
def test_gazetteer_skips_a_line_whose_text_field_is_not_text(tmp_path, caplog, fields, field):
    path = _lines(tmp_path / "gazetteer.jsonl", {**_PLACE, **fields}, {**_PLACE, "name": "Bergen"})
    with caplog.at_level(logging.WARNING):
        store = GazetteerStore.load(path)
    assert [info.name for info in store] == ["Bergen"]
    assert f"gazetteer {path} line 1 skipped: {field} must be text, got " in caplog.text


def test_gazetteer_numbers_and_optional_nulls_load_as_before(tmp_path):
    path = _lines(tmp_path / "gazetteer.jsonl", {**_PLACE, "name": 1999, "id": 7, "country": None})
    (info,) = GazetteerStore.load(path)
    assert (info.name, info.source_id, info.country) == ("1999", "7", None)


@pytest.mark.parametrize("content", [None, b"\xff\xfe not utf-8\n"], ids=["missing", "not-utf-8"])
def test_gazetteer_load_refuses_an_unreadable_file(tmp_path, content):
    path = tmp_path / "gazetteer.jsonl"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(DataError, match=f"^cannot read gazetteer {re.escape(str(path))}: ") as refused:
        GazetteerStore.load(path)
    assert isinstance(refused.value.__cause__, (OSError, UnicodeDecodeError))


# --- predictions: a bad line is a DataError naming the line and the field ----------

_PREDICTION_CASES = {
    "record-id-null": ({**_PRED, "record_id": None}, "record_id"),
    "record-id-list": ({**_PRED, "record_id": ["p1"]}, "record_id"),
    "approach-true": ({**_PRED, "approach": True}, "approach"),
    "model-list": ({**_PRED, "model": ["m"]}, "model"),
    "raw-text-object": ({**_PRED, "raw_text": {"a": 1}}, "raw_text"),
    "flags-null-item": ({**_PRED, "flags": [1, None]}, "flags"),
    "flags-list-item": ({**_PRED, "flags": [["a"]]}, "flags"),
    "recalled-name-false": ({**_PRED, "recalled": [[False, _PRED["recalled"][0][1]]]}, "recalled name"),
    "recalled-info-name-null": (_recalled(name=None), "name"),
    "recalled-info-country-list": (_recalled(country=["X"]), "country"),
    "recalled-info-id-object": (_recalled(id={"a": 1}), "id"),
}


@pytest.mark.parametrize("case", sorted(_PREDICTION_CASES))
def test_predictions_refuse_a_text_field_that_is_not_text(tmp_path, case):
    bad, field = _PREDICTION_CASES[case]
    path = _lines(tmp_path / "preds.jsonl", {**_PRED, "record_id": "p0"}, bad)
    want = f"^predictions {re.escape(str(path))} line 2: {field} must be text, got "
    with pytest.raises(DataError, match=want):
        read_predictions(path)


def test_predictions_numbers_and_optional_nulls_load(tmp_path):
    path = _lines(
        tmp_path / "preds.jsonl",
        {**_PRED, "record_id": 7, "approach": None, "model": None, "raw_text": None, "flags": [1]},
        {**_recalled(id=3, country=None), "record_id": "p2"},
    )
    first, second = read_predictions(path)
    assert (first.record_id, first.approach, first.model, first.raw_text) == ("7", "", "", "")
    assert first.flags == ("1",)
    info = second.recalled[0][1]
    assert (info.source_id, info.country) == ("3", None)


def test_eval_refuses_a_predictions_file_with_a_list_model(capsys, tmp_path):
    preds = _lines(tmp_path / "preds.jsonl", {**_PRED, "record_id": "r1", "model": ["m"]})
    data = _lines(tmp_path / "data.jsonl", _REC)
    assert main(["eval", "--predictions", str(preds), "--dataset", str(data)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err == f"data error: predictions {preds} line 1: model must be text, got list\n"


# --- stored reports ----------------------------------------------------------------


@pytest.mark.parametrize("label", [None, *_NOT_TEXT.values()], ids=["null", *_NOT_TEXT])
def test_report_refuses_a_label_that_is_not_text(capsys, tmp_path, label):
    path = tmp_path / "metrics.json"
    record = {"label": label, "n_total": 1, "n_covered": 0, "coverage_pct": 0.0}
    path.write_text(json.dumps(record), encoding="utf-8")
    assert main(["report", str(path)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"data error: cannot read metrics report {path}: label must be text, got " in err


# --- the chat base URL -------------------------------------------------------------


def test_chat_base_url_query_stays_after_the_path(chat_stub):
    chat_stub.script("", "(1, 2, 3, 4)")
    client = ChatClient(chat_stub.base_url + "/v1?api-version=1", backoff_s=0.01)
    try:
        assert client.complete(ChatRequest(model="m", system="s", user="u")) == "(1, 2, 3, 4)"
    finally:
        client.close()
    assert chat_stub.core.requests[-1]["path"] == "/v1/chat/completions?api-version=1"
