import random

import pytest

from fixtures import MIXED_EXPECT, mixed_failure_script
from geobox import BoundingBox, ChatClient, GeoInfo, GeoPoint, Prediction
from geobox.analysis import analyze_errors, sign_flip_variants
from geobox.dataset import golds_by_id
from geobox.pipeline import Approach, ExperimentConfig, RunDeps, run_experiment

# --- sign-flip probe ----------------------------------------------------------


def test_sign_flip_variants_reorder_bounds():
    box = BoundingBox(-96.163, 28.0, -94.163, 30.0)
    lons, lats, both = sign_flip_variants(box)
    assert lons == BoundingBox(94.163, 28.0, 96.163, 30.0)
    assert lats == BoundingBox(-96.163, -30.0, -94.163, -28.0)
    assert both == BoundingBox(94.163, -30.0, 96.163, -28.0)


def _pred(record_id, bbox=None, recalled=(), flags=()):
    return Prediction(
        record_id=record_id,
        approach="geoaug-oracle",
        model="m",
        bbox=bbox,
        recalled=recalled,
        flags=flags,
    )


def test_longitude_flip_detected():
    gold = {"a": BoundingBox(-96.163, 28.0, -94.163, 30.0)}
    pred = _pred("a", bbox=BoundingBox(94.163, 28.0, 96.163, 30.0))
    report = analyze_errors([pred], gold)
    assert report.sign_flip_suspects == 1


def test_latitude_flip_detected():
    gold = {"a": BoundingBox(10.0, 42.0, 20.0, 48.0)}
    pred = _pred("a", bbox=BoundingBox(10.0, -48.0, 20.0, -42.0))
    assert analyze_errors([pred], gold).sign_flip_suspects == 1


def test_both_axes_flip_detected():
    gold = {"a": BoundingBox(10.0, 42.0, 20.0, 48.0)}
    pred = _pred("a", bbox=BoundingBox(-20.0, -48.0, -10.0, -42.0))
    assert analyze_errors([pred], gold).sign_flip_suspects == 1


def test_overlapping_prediction_is_never_a_flip_suspect():
    gold = {"a": BoundingBox(-1.0, -1.0, 5.0, 5.0)}
    # overlaps gold, and its negations would too; overlap wins
    pred = _pred("a", bbox=BoundingBox(-2.0, -2.0, 2.0, 2.0))
    assert analyze_errors([pred], gold).sign_flip_suspects == 0


def test_plain_miss_is_not_a_flip_suspect():
    gold = {"a": BoundingBox(0.0, 0.0, 10.0, 10.0)}
    pred = _pred("a", bbox=BoundingBox(150.0, 40.0, 160.0, 50.0))
    assert analyze_errors([pred], gold).sign_flip_suspects == 0


# --- coordinate-copy probe --------------------------------------------------------

_GULF_RECALL = (
    (
        "Persian Gulf",
        GeoInfo(name="Persian Gulf", center=GeoPoint(lat=27.87, lon=51.197231065873154)),
    ),
    (
        "Arabian Sea",
        GeoInfo(name="Arabian Sea", center=GeoPoint(lat=12.4368972, lon=63.002662154702726)),
    ),
)

_GULF_GOLD = {"a": BoundingBox(51.0, 12.0, 64.0, 28.0)}


def test_all_four_edges_copied():
    pred = _pred(
        "a", bbox=BoundingBox(51.197, 12.437, 63.003, 27.870), recalled=_GULF_RECALL
    )
    report = analyze_errors([pred], _GULF_GOLD)
    assert report.coord_copy_suspects == 1
    assert report.coord_copy_suspects_loose == 1


def test_three_of_four_edges_copied():
    pred = _pred(
        "a", bbox=BoundingBox(51.197, 21.0, 63.003, 27.870), recalled=_GULF_RECALL
    )
    assert analyze_errors([pred], _GULF_GOLD).coord_copy_suspects == 1


def test_two_copied_edges_are_not_enough():
    pred = _pred(
        "a", bbox=BoundingBox(51.197, 5.0, 63.003, 40.0), recalled=_GULF_RECALL
    )
    report = analyze_errors([pred], {"a": BoundingBox(50.0, 4.0, 64.0, 41.0)})
    assert report.coord_copy_suspects == 0
    assert report.coord_copy_suspects_loose == 0


def test_loose_pass_catches_rounded_copies():
    pred = _pred(
        "a", bbox=BoundingBox(51.25, 12.48, 63.05, 27.92), recalled=_GULF_RECALL
    )
    report = analyze_errors([pred], _GULF_GOLD)
    assert report.coord_copy_suspects == 0
    assert report.coord_copy_suspects_loose == 1


def test_copy_probe_needs_recalled_mentions():
    pred = _pred("a", bbox=BoundingBox(51.197, 12.437, 63.003, 27.870))
    report = analyze_errors([pred], _GULF_GOLD)
    assert report.coord_copy_suspects == 0
    assert report.coord_copy_suspects_loose == 0


# --- parse and skew tallies ---------------------------------------------------------


def test_invalid_parse_tallies():
    golds = {k: BoundingBox(0, 0, 10, 10) for k in "abcd"}
    preds = [
        _pred("a", flags=("invalid_order",)),
        _pred("b", flags=("invalid_range",)),
        _pred("c", flags=("invalid_order", "invalid_range")),
        _pred("d", bbox=BoundingBox(0, 0, 10, 10)),
    ]
    report = analyze_errors(preds, golds)
    assert report.n_scored == 4
    assert report.invalid_parse == 3
    assert report.out_of_range_parse == 2


def test_skew_tallies():
    golds = {k: BoundingBox(0.0, 0.0, 10.0, 10.0) for k in "abc"}
    preds = [
        _pred("a", bbox=BoundingBox(2.0, 2.0, 8.0, 8.0)),  # inside: precision 1
        _pred("b", bbox=BoundingBox(-5.0, -5.0, 15.0, 15.0)),  # superset: recall 1
        _pred("c", bbox=BoundingBox(0.0, 0.0, 10.0, 10.0)),  # exact: neither
    ]
    report = analyze_errors(preds, golds)
    assert report.precision_gt_recall == 1
    assert report.recall_gt_precision == 1


def test_unknown_id_rejected():
    with pytest.raises(ValueError):
        analyze_errors([_pred("ghost", bbox=BoundingBox(0, 0, 1, 1))], {})


def test_duplicate_id_rejected():
    pred = _pred("a", bbox=BoundingBox(-5.0, -5.0, 15.0, 15.0))
    with pytest.raises(ValueError, match="duplicate"):
        analyze_errors([pred, pred], {"a": BoundingBox(0.0, 0.0, 10.0, 10.0)})


def test_report_to_record_keys():
    record = analyze_errors([], {}).to_record()
    assert record == {
        "n_scored": 0,
        "sign_flip_suspects": 0,
        "coord_copy_suspects": 0,
        "coord_copy_suspects_loose": 0,
        "invalid_parse": 0,
        "out_of_range_parse": 0,
        "precision_gt_recall": 0,
        "recall_gt_precision": 0,
    }


def test_counts_are_permutation_invariant():
    golds = {
        "a": BoundingBox(-96.163, 28.0, -94.163, 30.0),
        "b": BoundingBox(51.0, 12.0, 64.0, 28.0),
        "c": BoundingBox(0.0, 0.0, 10.0, 10.0),
    }
    preds = [
        _pred("a", bbox=BoundingBox(94.163, 28.0, 96.163, 30.0)),
        _pred("b", bbox=BoundingBox(51.197, 12.437, 63.003, 27.870), recalled=_GULF_RECALL),
        _pred("c", flags=("invalid_order",)),
    ]
    base = analyze_errors(preds, golds)
    rng = random.Random(3)
    for _ in range(5):
        shuffled = preds[:]
        rng.shuffle(shuffled)
        assert analyze_errors(shuffled, golds) == base


# --- full mixed scenario over the pipeline ---------------------------------------


def test_mixed_scenario_counts(records, chat_stub):
    for description, reply in mixed_failure_script(records).items():
        chat_stub.script(description, reply)
    config = ExperimentConfig(Approach.REASONING_ORACLE, "m")
    deps = RunDeps(chat=ChatClient(chat_stub.base_url, backoff_s=0.01))
    predictions, metrics = run_experiment(config, records, deps)

    assert metrics.n_total == MIXED_EXPECT["n_total"]
    assert metrics.n_covered == MIXED_EXPECT["n_covered"]
    assert metrics.coverage_pct == pytest.approx(MIXED_EXPECT["coverage_pct"])

    report = analyze_errors(predictions, golds_by_id(records))
    assert report.n_scored == MIXED_EXPECT["n_total"]
    assert report.sign_flip_suspects == MIXED_EXPECT["sign_flip_suspects"]
    assert report.coord_copy_suspects == MIXED_EXPECT["coord_copy_suspects"]
    assert report.coord_copy_suspects_loose == MIXED_EXPECT["coord_copy_suspects_loose"]
    assert report.invalid_parse == MIXED_EXPECT["invalid_parse"]
    assert report.out_of_range_parse == MIXED_EXPECT["out_of_range_parse"]
    assert report.precision_gt_recall == MIXED_EXPECT["precision_gt_recall"]
    assert report.recall_gt_precision == MIXED_EXPECT["recall_gt_precision"]
