"""The JSONL loaders decode exactly as a plain ``json.loads`` loop did.

``read_predictions`` and ``load_dataset`` run on the shared line decoder
(``jsonio.decode_json_line``) with the cyclic GC paused. Each malformed
line must still give the error text and line number that the earlier
``json.loads`` loop with keyword-built values gave, copied here as the
reference (except a line that is not an object, which that loop let
escape as ``AttributeError``); and the GC must be left as the caller had it, whether the
load succeeds or raises.
"""

import gc
import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from geobox import GazetteerStore, GeoInfo, GeoPoint, Prediction
from geobox.dataset import DataError, LocationRecord, Mention, load_dataset, read_predictions
from geobox.geo import bbox_from_obj
from geobox.jsonio import decode_json_line, gc_paused
from geobox.netutil import JsonlCache

# --- the earlier decoding, copied as the reference ----------------------------------


def ref_geoinfo_from_obj(obj):
    return GeoInfo(
        name=str(obj["name"]),
        center=GeoPoint(lat=float(obj["lat"]), lon=float(obj["lon"])),
        country=str(obj["country"]) if obj.get("country") is not None else None,
        bbox=bbox_from_obj(obj["bbox"]) if obj.get("bbox") is not None else None,
        source_id=str(obj["id"]) if obj.get("id") is not None else None,
    )


def ref_prediction_from_obj(obj):
    bbox = bbox_from_obj(obj["bbox"]) if obj.get("bbox") else None
    point = None
    if obj.get("point"):
        lat, lon = obj["point"]
        point = GeoPoint(lat=float(lat), lon=float(lon))
    return Prediction(
        record_id=str(obj["record_id"]),
        approach=str(obj.get("approach", "")),
        model=str(obj.get("model", "")),
        bbox=bbox,
        point=point,
        raw_text=str(obj.get("raw_text", "")),
        recalled=tuple(
            (str(name), ref_geoinfo_from_obj(info)) for name, info in obj.get("recalled", [])
        ),
        flags=tuple(str(f) for f in obj.get("flags", [])),
    )


def ref_record_from_obj(obj):
    def mention(m):
        has_gold = m.get("lat") is not None and m.get("lon") is not None
        return Mention(name=str(m["name"]), gold=ref_geoinfo_from_obj(m) if has_gold else None)

    return LocationRecord(
        record_id=str(obj["id"]),
        description=str(obj["description"]),
        gold_bbox=bbox_from_obj(obj["gold_bbox"]),
        mentions=tuple(mention(m) for m in obj.get("mentions", [])),
        gold_name=str(obj["gold_name"]) if obj.get("gold_name") is not None else None,
        gold_country=str(obj["gold_country"]) if obj.get("gold_country") is not None else None,
    )


def ref_read_predictions(path):
    """The earlier loop: a list of predictions, or the exception it raised."""
    predictions = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                predictions.append(ref_prediction_from_obj(json.loads(line)))
            except (ValueError, KeyError, TypeError) as exc:
                return DataError(f"predictions {path} line {line_no}: {exc}")
            except Exception as exc:  # escapes the loader unchanged
                return exc
    return predictions


def ref_load_dataset(path):
    """The earlier loop: (records, skipped) with the same skip rules."""
    records, skipped, seen = [], [], set()
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = ref_record_from_obj(json.loads(line))
            except (ValueError, KeyError, TypeError) as exc:
                skipped.append((line_no, str(exc)))
                continue
            if record.record_id in seen:
                skipped.append((line_no, f"duplicate id {record.record_id!r}"))
                continue
            seen.add(record.record_id)
            records.append(record)
    return records, skipped


# --- malformed lines ------------------------------------------------------------------

_PRED = {
    "record_id": "p1",
    "approach": "direct",
    "model": "m",
    "bbox": [1.0, 2.0, 3.0, 4.0],
    "point": None,
    "raw_text": "(1, 2, 3, 4)",
    "recalled": [["A", {"name": "A", "lat": 2.5, "lon": 1.5, "country": "X", "bbox": [1, 2, 2, 3], "id": 7}]],
    "flags": ["recall_miss:B"],
}
_PRED_LINE = json.dumps(_PRED)


def _with(**fields):
    return json.dumps({**_PRED, **fields})


BAD_PREDICTION_LINES = {
    "trailing-garbage": _PRED_LINE + " x",
    "two-objects": _PRED_LINE + _PRED_LINE,
    "two-objects-spaced": _PRED_LINE + " \t" + _PRED_LINE,
    "bom": "\ufeff" + _PRED_LINE,
    "truncated": _PRED_LINE[:-7],
    "empty-list": "[]",
    "null": "null",
    "number": "42",
    "string": '"p1"',
    "null-recalled": _with(recalled=None),
    "null-flags": _with(flags=None),
    "null-recalled-info": _with(recalled=[["A", None]]),
    "recalled-not-pairs": _with(recalled=[["A"]]),
    "recalled-info-list": _with(recalled=[["A", []]]),
    "recalled-info-no-lat": _with(recalled=[["A", {"name": "A", "lon": 1}]]),
    "recalled-info-bad-bbox": _with(recalled=[["A", {"name": "A", "lat": 1, "lon": 1, "bbox": [1]}]]),
    "missing-id": json.dumps({k: v for k, v in _PRED.items() if k != "record_id"}),
    "nan-bbox": _PRED_LINE.replace("[1.0, 2.0, 3.0, 4.0]", "[NaN, 2.0, 3.0, 4.0]"),
    "infinite-point": _with(bbox=None, point=[1, 2]).replace("[1, 2]", "[Infinity, 2]"),
    "bbox-and-point": _with(point=[1.0, 2.0]),
    "short-point": _with(bbox=None, point=[1.0]),
    "string-bbox": _with(bbox="1,2,3,4"),
    "huge-int": _with(model="M").replace('"M"', "9" * 5000),
}


NON_OBJECT_TYPES = {"empty-list": "list", "null": "NoneType", "number": "int", "string": "str"}


def _write(path, lines, newline="\n"):
    path.write_bytes(newline.join(lines).encode("utf-8") + newline.encode())


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("case", sorted(BAD_PREDICTION_LINES))
def test_bad_prediction_line_fails_as_with_json_loads(tmp_path, case, newline):
    path = tmp_path / "preds.jsonl"
    _write(path, [_PRED_LINE.replace("p1", "p0"), "", "   ", BAD_PREDICTION_LINES[case], _PRED_LINE], newline)
    want = ref_read_predictions(path)
    if case in NON_OBJECT_TYPES:
        # The earlier loop let these escape as AttributeError; now they
        # are data errors with their line number.
        want = DataError(
            f"predictions {path} line 4: expected a JSON object, got {NON_OBJECT_TYPES[case]}"
        )
    assert isinstance(want, Exception)
    with pytest.raises(type(want)) as got:
        read_predictions(path)
    assert str(got.value) == str(want)
    if isinstance(want, DataError):
        assert " line 4: " in str(got.value)


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_good_predictions_decode_as_with_json_loads(tmp_path, newline):
    path = tmp_path / "preds.jsonl"
    lines = [
        _PRED_LINE,
        "",
        _with(record_id="p2", bbox=None, point=[-0.0, 180.0], recalled=[], flags=[]),
        " \t " + _with(record_id="p3", bbox=[-0.0, -0.0, 0.0, 0.0]) + "  ",
        json.dumps({"record_id": "p4"}),
        _with(record_id="p5", bbox=[], point=[], recalled=[["A", {"name": "A", "lat": 0, "lon": 0, "country": None}]]),
    ]
    _write(path, lines, newline)
    got = read_predictions(path)
    assert got == ref_read_predictions(path)
    assert repr(got) == repr(ref_read_predictions(path))  # signed zeros too
    assert len(got) == 5


_REC = {
    "id": "r1",
    "description": "A lake near Oslo.",
    "gold_bbox": [10, 59, 11, 60],
    "gold_name": "Lake",
    "gold_country": "NO",
    "mentions": [{"name": "Oslo", "lat": 59.9, "lon": 10.7, "country": "NO"}, {"name": "lake"}],
}


def _rec(**fields):
    return json.dumps({**_REC, **fields})


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_dataset_skips_as_with_json_loads(tmp_path, newline):
    lines = [
        _rec(),
        "",
        _rec(id="r2") + " x",
        _rec(id="r3") + _rec(id="r4"),
        "\ufeff" + _rec(id="r5"),
        "[]",
        "null",
        _rec(id="r6", mentions=None),
        _rec(id="r7", gold_bbox=None),
        _rec(id="r8", gold_name=None, gold_country=None),
        _rec(id="r9", mentions=[{"name": "Bergen"}]),
        _rec(id="r10", mentions=[{"name": "Oslo", "lat": 1}]),
        _rec(id="r11", mentions=[{"name": "Oslo", "lat": 100, "lon": 1}]),
        _rec(id="r12", gold_bbox=[10, 59, 11, 60]).replace("[10, 59, 11, 60]", "[NaN, 59, 11, 60]"),
        _rec(id="r13", description="   "),
        _rec(),  # duplicate id
        "   ",
        _rec(id="r14", mentions=[]),
    ]
    path = tmp_path / "data.jsonl"
    _write(path, lines, newline)
    records, report = load_dataset(path)
    want_records, want_skipped = ref_load_dataset(path)
    assert records == want_records
    assert report.skipped == want_skipped
    assert [r.record_id for r in records] == ["r1", "r8", "r10", "r14"]


# --- the line decoder itself --------------------------------------------------------

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)
_affixes = st.sampled_from(["", " ", "\t", "x", "\ufeff", " 1", "{}", "]", ",", "\n"])


def _outcome(fn, text):
    try:
        return "ok", repr(fn(text))
    except Exception as exc:
        return type(exc).__name__, str(exc)


@given(_json_values, _affixes, _affixes)
@example(None, "", "")
@example([1, 2], "", " ")
def test_decode_json_line_is_json_loads(value, prefix, suffix):
    text = prefix + json.dumps(value) + suffix
    assert _outcome(decode_json_line, text) == _outcome(json.loads, text)


@pytest.mark.parametrize("text", ["", "   ", "\ufeff", "{", "NaN", "-Infinity", '"\\ud800"', "1e400"])
def test_decode_json_line_edge_cases(text):
    if text == '"\\ud800"':  # a lone surrogate: UTF-8 cannot encode it
        with pytest.raises(ValueError, match="surrogates not allowed"):
            decode_json_line(text)
    else:
        assert _outcome(decode_json_line, text) == _outcome(json.loads, text)


# --- the GC is left as the caller had it ---------------------------------------------


@pytest.fixture
def gc_state():
    """Yield a setter for the GC state; the GC is enabled again afterwards."""
    enabled = gc.isenabled()

    def set_state(on):
        (gc.enable if on else gc.disable)()

    yield set_state
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False], ids=["caller-enabled", "caller-disabled"])
def test_loaders_restore_the_gc_state(tmp_path, gc_state, enabled):
    good_preds = tmp_path / "good_preds.jsonl"
    _write(good_preds, [_PRED_LINE])
    bad_preds = tmp_path / "bad_preds.jsonl"
    _write(bad_preds, [_PRED_LINE, "{"])
    dataset = tmp_path / "data.jsonl"
    _write(dataset, [_rec(), "{"])
    empty = tmp_path / "empty.jsonl"
    _write(empty, ["{"])
    gazetteer = tmp_path / "gazetteer.jsonl"
    _write(gazetteer, [json.dumps({"name": "Oslo", "lat": 59.9, "lon": 10.7}), "{"])
    cache = tmp_path / "cache.jsonl"
    _write(cache, [json.dumps({"key": "k", "value": 1}), "{"])

    gc_state(enabled)
    assert len(read_predictions(good_preds)) == 1
    assert gc.isenabled() is enabled
    with pytest.raises(DataError):
        read_predictions(bad_preds)
    assert gc.isenabled() is enabled
    with pytest.raises(DataError):
        read_predictions(tmp_path / "missing.jsonl")
    assert gc.isenabled() is enabled
    assert len(load_dataset(dataset)[0]) == 1
    assert gc.isenabled() is enabled
    with pytest.raises(DataError):
        load_dataset(empty)
    assert gc.isenabled() is enabled
    assert len(GazetteerStore.load(gazetteer)) == 1
    assert gc.isenabled() is enabled
    assert JsonlCache(cache).get("k") == 1
    assert gc.isenabled() is enabled


def test_gc_paused_restores_on_error_and_nests(gc_state):
    gc_state(True)
    with pytest.raises(KeyError):
        with gc_paused():
            assert not gc.isenabled()
            raise KeyError("x")
    assert gc.isenabled()
    with gc_paused():
        with gc_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()  # the inner pause found it off and leaves it off
    assert gc.isenabled()
