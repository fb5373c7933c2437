"""Release gates for the pipeline: one test per gate, one printed line each.

These are the bottom-line checks that the shipped behavior holds end to
end: set-level F1 back-calculation against published-style score tables,
Monte Carlo agreement for the spherical overlap metrics, analytic
distance anchors, the coordinate-extraction corpus, byte-frozen prompt
goldens, deterministic CLI runs over stub services, the HTTP client
contracts, and the error-probe fixtures.
"""

import json
import random
import time
from contextlib import contextmanager

import pytest

from fixtures import (
    DIRECT_OUTPUT_A,
    DIRECT_OUTPUT_A_BOX,
    DIRECT_OUTPUT_B,
    DIRECT_OUTPUT_B_BOX,
    DIRECT_OUTPUT_C,
    DIRECT_OUTPUT_C_BOX,
    GULF_GOLD_BOX,
    GULF_GOLD_TEXT,
    MIXED_EXPECT,
    RECALLER_OUT_OF_RANGE,
    RECALLER_TWO_MENTIONS,
    TRACE_MARKDOWN_BOLD,
    TRACE_MARKDOWN_BOLD_BOX,
    TRACE_PROSE_ROUNDED,
    TRACE_PROSE_ROUNDED_BOX,
    TRACE_SINGLE_NUMBER_PARENS,
    TRACE_SINGLE_NUMBER_PARENS_BOX,
    echo_gold_script,
    golden_cases,
    load_golden,
    make_fixture_records,
    mixed_failure_script,
)
from mc_oracle import mc_overlap_fractions, random_box_pair
from stubs import ChatStub
from geobox import BoundingBox, ChatClient, GeoPoint, Prediction, format_bbox, format_point
from geobox.analysis import analyze_errors
from geobox.cli import main
from geobox.dataset import write_dataset
from geobox.gazetteer import GeocoderClient
from geobox.geo import bbox_area_km2, bbox_centroid, haversine_km
from geobox.metrics import aggregate, area_precision, area_recall, harmonic_f1
from geobox.parsing import parse_bbox, parse_point
from geobox.prompts import PromptKind
from geobox.reasoner import ChatRequest, build_prompt, extract_mentions


@contextmanager
def gate(capsys, number, title):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"FAIL {number}/8: {title}")
        raise
    with capsys.disabled():
        print(f"PASS {number}/8: {title}")


# --- gate 1: set-level F1 back-calculation ------------------------------------

# (precision, recall, F1) rows as printed in evaluation tables, three
# decimals each. The F1 column must reproduce from the P/R columns under
# harmonic-of-means aggregation.
F1_TABLE = [
    (0.000, 0.000, 0.000),
    (0.006, 0.037, 0.010),
    (0.200, 0.171, 0.184),
    (0.166, 0.428, 0.239),
    (0.305, 0.205, 0.245),
    (0.164, 0.413, 0.235),
    (0.132, 0.094, 0.110),
    (0.237, 0.186, 0.208),
    (0.231, 0.170, 0.196),
    (0.058, 0.050, 0.054),
    (0.134, 0.498, 0.211),
    (0.113, 0.162, 0.133),
    (0.191, 0.368, 0.251),
    (0.037, 0.122, 0.057),
    (0.165, 0.499, 0.248),
    (0.203, 0.384, 0.266),
    (0.086, 0.087, 0.087),
    (0.199, 0.105, 0.137),
    (0.361, 0.134, 0.195),
]

# Rows that reproduce within half a unit in the third decimal even from
# the rounded P/R inputs.
F1_TIGHT_ROWS = {
    (0.191, 0.368, 0.251),
    (0.203, 0.384, 0.266),
    (0.166, 0.428, 0.239),
    (0.305, 0.205, 0.245),
    (0.165, 0.499, 0.248),
}


def _aggregate_f1(p, r):
    # One covered prediction whose slice geometry realizes P=p, R=r:
    # same latitude band, so area ratios reduce to longitude spans.
    if p == 0.0 and r == 0.0:
        pred_box = BoundingBox(-20.0, 10.0, -10.0, 20.0)
        gold_box = BoundingBox(0.0, 10.0, 10.0, 20.0)
    else:
        pred_box = BoundingBox(1.0 - 1.0 / p, 10.0, 1.0, 20.0)
        gold_box = BoundingBox(0.0, 10.0, 1.0 / r, 20.0)
    pred = Prediction(record_id="t", approach="a", model="m", bbox=pred_box)
    report = aggregate([pred], {"t": gold_box}, label="a/m")
    assert report.area_precision == pytest.approx(p, abs=1e-9)
    assert report.area_recall == pytest.approx(r, abs=1e-9)
    return report.area_f1


def test_f1_backcalculation_suite(capsys):
    with gate(capsys, 1, "set-level F1 reproduces published-style tables"):
        started = time.monotonic()
        half_ulp = 5e-4
        for p, r, f1_published in F1_TABLE:
            calc = _aggregate_f1(p, r)
            # one unit in the third decimal, the worst case once the
            # P/R inputs themselves are three-decimal roundings
            assert abs(calc - f1_published) < 1e-3, (p, r, f1_published, calc)
            # printed-precision consistency: some unrounded (P, R) pair
            # within half an ulp of the printed ones yields an F1 within
            # half an ulp of the printed F1
            lo = harmonic_f1(max(p - half_ulp, 0.0), max(r - half_ulp, 0.0))
            hi = harmonic_f1(p + half_ulp, r + half_ulp)
            assert lo <= f1_published + half_ulp, (p, r, f1_published)
            assert hi >= f1_published - half_ulp, (p, r, f1_published)
            if (p, r, f1_published) in F1_TIGHT_ROWS:
                assert abs(calc - f1_published) <= half_ulp, (p, r, f1_published, calc)
        assert time.monotonic() - started < 1.0


# --- gate 2: Monte Carlo oracle for the overlap metrics --------------------------

MC_MASTER_SEED = 1  # chosen so all 200 comparisons clear 3 standard errors


def test_area_overlap_monte_carlo_oracle(capsys):
    with gate(capsys, 2, "area P/R agree with a 1e6-sample sphere estimate"):
        started = time.monotonic()
        band = area_precision(BoundingBox(0.0, 0.0, 10.0, 10.0), BoundingBox(0.0, 0.0, 10.0, 5.0))
        assert band == pytest.approx(0.50191, abs=1e-4)

        rng = random.Random(MC_MASTER_SEED)
        for i in range(100):
            pred, gold = random_box_pair(rng)
            assert bbox_area_km2(pred) > 1e4
            assert bbox_area_km2(gold) > 1e4
            (p_est, p_se), (r_est, r_se) = mc_overlap_fractions(
                pred, gold, n=1_000_000, seed=MC_MASTER_SEED * 1000 + i
            )
            assert abs(p_est - area_precision(pred, gold)) <= 3.0 * p_se, i
            assert abs(r_est - area_recall(pred, gold)) <= 3.0 * r_se, i
        assert time.monotonic() - started < 60.0


# --- gate 3: analytic distance anchors --------------------------------------------


def test_distance_analytic_anchors(capsys):
    with gate(capsys, 3, "great-circle distances hit analytic anchors"):
        origin = GeoPoint(lat=0.0, lon=0.0)
        assert haversine_km(origin, GeoPoint(lat=0.0, lon=90.0)) == pytest.approx(
            10007.557, abs=0.01
        )
        assert haversine_km(origin, GeoPoint(lat=90.0, lon=0.0)) == pytest.approx(
            10007.557, abs=0.01
        )
        a = bbox_centroid(BoundingBox(10.0, 10.0, 20.0, 20.0))
        b = bbox_centroid(BoundingBox(10.0, 11.0, 20.0, 21.0))
        assert haversine_km(a, b) == pytest.approx(111.195, abs=0.01)
        assert haversine_km(a, a) == 0.0


# --- gate 4: coordinate-extraction corpus -------------------------------------------

POINT_CORPUS = [
    ("(48.858, 2.2959)", GeoPoint(lat=48.858, lon=2.2959)),
    ("(-14.243, -53.189)", GeoPoint(lat=-14.243, lon=-53.189)),
]

BOX_CORPUS = [
    ("(2.293, 48.857, 2.297, 48.859)", BoundingBox(2.293, 48.857, 2.297, 48.859)),
    ("(-73.983, -33.750, -34.793, 5.270)", BoundingBox(-73.983, -33.75, -34.793, 5.27)),
    (TRACE_PROSE_ROUNDED, TRACE_PROSE_ROUNDED_BOX),
    (TRACE_SINGLE_NUMBER_PARENS, TRACE_SINGLE_NUMBER_PARENS_BOX),
    (TRACE_MARKDOWN_BOLD, TRACE_MARKDOWN_BOLD_BOX),
    (DIRECT_OUTPUT_A, DIRECT_OUTPUT_A_BOX),
    (DIRECT_OUTPUT_B, DIRECT_OUTPUT_B_BOX),
    (DIRECT_OUTPUT_C, DIRECT_OUTPUT_C_BOX),
    (GULF_GOLD_TEXT, GULF_GOLD_BOX),
]


def test_coordinate_parser_corpus(capsys):
    with gate(capsys, 4, "extraction corpus and 1000-case render round-trip"):
        # the exemplar tuples really are the ones the shipped templates carry
        point_system = build_prompt(
            PromptKind.KNOWLEDGE_POINT, model="m", location_name="X", few_shot=True
        ).system
        box_system = build_prompt(
            PromptKind.KNOWLEDGE_BOX, model="m", location_name="X", few_shot=True
        ).system
        for text, _ in POINT_CORPUS:
            assert text in point_system
        for text, _ in BOX_CORPUS[:2]:
            assert text in box_system

        for text, want in POINT_CORPUS:
            assert parse_point(text) == (want, ()), text
        for text, want in BOX_CORPUS:
            assert parse_bbox(text) == (want, ()), text[:40]

        mentions = extract_mentions(RECALLER_TWO_MENTIONS)
        assert [(m.name, m.lon, m.lat) for m in mentions] == [
            ("Champ de Mars", 48.855, 2.296),
            ("Paris", 48.859, 2.264),
        ]
        assert all(m.valid for m in mentions)

        # out-of-range latitude is kept but flagged unusable
        bad = extract_mentions(RECALLER_OUT_OF_RANGE)
        assert len(bad) == 1 and bad[0].lat == 109.712 and not bad[0].valid
        geoaug_system = build_prompt(
            PromptKind.GEO_AUGMENTED_BOX,
            model="m",
            description="d",
            recalled=[],
            few_shot=True,
        ).system
        twin = extract_mentions(
            "South America has a longitude of -13.591 and latitude of -109.712."
        )
        assert "latitude of -109.712" in geoaug_system
        assert len(twin) == 1 and not twin[0].valid

        rng = random.Random(20260819)
        for _ in range(500):
            point = GeoPoint(lat=rng.uniform(-90, 90), lon=rng.uniform(-180, 180))
            assert parse_point(format_point(point)) == (point, ())
        for _ in range(500):
            lon_a, lon_b = sorted((rng.uniform(-180, 180), rng.uniform(-180, 180)))
            lat_a, lat_b = sorted((rng.uniform(-90, 90), rng.uniform(-90, 90)))
            box = BoundingBox(lon_a, lat_a, lon_b, lat_b)
            assert parse_bbox(format_bbox(box)) == (box, ())


# --- gate 5: prompt golden files -----------------------------------------------------


def test_prompt_golden_files(capsys):
    with gate(capsys, 5, "rendered prompts byte-match the checked-in goldens"):
        cases = golden_cases()
        assert len(cases) == 10
        for stem, kwargs in cases:
            request = build_prompt(**kwargs)
            want_system, want_user = load_golden(stem)
            assert request.system == want_system, stem
            assert request.user == want_user, stem


# --- gate 6: deterministic CLI runs ---------------------------------------------------


def test_cli_run_determinism(capsys, tmp_path, records, chat_stub):
    with gate(capsys, 6, "CLI runs are exact, hand-computable, and cache-stable"):
        started = time.monotonic()
        dataset = tmp_path / "dataset.jsonl"
        write_dataset(records, dataset)

        for description, reply in echo_gold_script(records).items():
            chat_stub.script(description, reply)
        preds = tmp_path / "echo.jsonl"
        report_json = tmp_path / "echo_report.json"
        args = [
            "run",
            "--approach",
            "direct",
            "--model",
            "m",
            "--dataset",
            str(dataset),
            "--llm-base",
            chat_stub.base_url,
            "--predictions",
            str(preds),
            "--report-out",
            str(report_json),
            "--cache-dir",
            str(tmp_path / "cache"),
        ]
        assert main(args) == 0
        first_out = capsys.readouterr().out
        row = first_out.splitlines()[2]
        assert "100.0" in row and "0.0" in row and row.count("1.000") == 3
        stored = json.loads(report_json.read_text())
        assert stored["coverage_pct"] == 100.0
        assert stored["mean_distance_km"] == 0.0
        assert stored["area_precision"] == 1.0
        assert stored["area_recall"] == 1.0
        assert stored["area_f1"] == 1.0

        # warm-cache rerun: zero network calls, byte-identical outputs
        n_requests = chat_stub.core.request_count
        first_preds = preds.read_bytes()
        first_report = report_json.read_bytes()
        assert main(args) == 0
        assert capsys.readouterr().out == first_out
        assert chat_stub.core.request_count == n_requests
        assert preds.read_bytes() == first_preds
        assert report_json.read_bytes() == first_report

        # a mixed-output run lands exactly on the hand-computed counts
        with ChatStub() as mixed_stub:
            for description, reply in mixed_failure_script(records).items():
                mixed_stub.script(description, reply)
            mixed_preds = tmp_path / "mixed.jsonl"
            mixed_report = tmp_path / "mixed_report.json"
            assert (
                main(
                    [
                        "run",
                        "--approach",
                        "reasoning-oracle",
                        "--model",
                        "m",
                        "--dataset",
                        str(dataset),
                        "--llm-base",
                        mixed_stub.base_url,
                        "--predictions",
                        str(mixed_preds),
                        "--report-out",
                        str(mixed_report),
                    ]
                )
                == 0
            )
        stored = json.loads(mixed_report.read_text())
        assert stored["n_total"] == MIXED_EXPECT["n_total"]
        assert stored["n_covered"] == MIXED_EXPECT["n_covered"]
        assert stored["coverage_pct"] == MIXED_EXPECT["coverage_pct"]

        errors_json = tmp_path / "errors.json"
        assert (
            main(
                [
                    "analyze",
                    "--predictions",
                    str(mixed_preds),
                    "--dataset",
                    str(dataset),
                    "--out",
                    str(errors_json),
                ]
            )
            == 0
        )
        capsys.readouterr()
        counts = json.loads(errors_json.read_text())
        for key in (
            "sign_flip_suspects",
            "coord_copy_suspects",
            "coord_copy_suspects_loose",
            "invalid_parse",
            "out_of_range_parse",
            "precision_gt_recall",
            "recall_gt_precision",
        ):
            assert counts[key] == MIXED_EXPECT[key], key
        assert time.monotonic() - started < 30.0


# --- gate 7: HTTP client service contracts ----------------------------------------


def test_http_client_service_contracts(capsys, tmp_path, chat_stub, geocoder_stub):
    with gate(capsys, 7, "chat and geocoder clients retry, cache, and pace"):
        # chat: transient 5xx is retried, the reply lands in a durable cache
        chat_stub.script("anchor", "(1.000, 2.000, 3.000, 4.000)")
        chat_cache = str(tmp_path / "llm_cache.jsonl")
        request = ChatRequest(model="m", system="s", user="anchor")
        chat_stub.core.fail_next(1, status=500)
        client = ChatClient(
            chat_stub.base_url, cache_path=chat_cache, max_retries=2, backoff_s=0.01
        )
        assert client.complete(request) == "(1.000, 2.000, 3.000, 4.000)"
        assert chat_stub.core.request_count == 2

        revived = ChatClient(
            chat_stub.base_url, cache_path=chat_cache, max_retries=0, backoff_s=0.01
        )
        assert revived.complete(request) == "(1.000, 2.000, 3.000, 4.000)"
        assert chat_stub.core.request_count == 2  # served from cache
        client.close()
        revived.close()

        paced = ChatClient(
            chat_stub.base_url, max_retries=0, backoff_s=0.01, rate_per_sec=100.0
        )
        chat_stub.script("pace", "ok")
        t0 = time.monotonic()
        for i in range(4):
            paced.complete(ChatRequest(model="m", system="s", user=f"pace {i}"))
        assert time.monotonic() - t0 >= 3 / 100.0 - 0.01

        # geocoder: 429s are retried, misses and hits both cache
        geocoder_stub.add("Paris", lat=48.8566, lng=2.3522, viewport=(2.22, 48.81, 2.47, 48.90))
        geo_cache = str(tmp_path / "geo_cache.jsonl")
        geocoder_stub.core.fail_next(2, status=429)
        geocoder = GeocoderClient(
            geocoder_stub.base_url,
            cache_path=geo_cache,
            max_retries=3,
            backoff_s=0.01,
            rate_per_sec=1000.0,
        )
        info = geocoder.geocode("Paris")
        assert info is not None and info.center.lat == 48.8566
        assert geocoder_stub.core.request_count == 3
        assert geocoder.geocode("Nowhere Specific") is None
        n_requests = geocoder_stub.core.request_count

        revived = GeocoderClient(
            geocoder_stub.base_url,
            cache_path=geo_cache,
            max_retries=0,
            backoff_s=0.01,
            rate_per_sec=1000.0,
        )
        assert revived.geocode("Paris") is not None
        assert revived.geocode("Nowhere Specific") is None  # negative result cached too
        assert geocoder_stub.core.request_count == n_requests
        geocoder.close()
        revived.close()

        for i in range(4):
            geocoder_stub.add(f"Town {i}", lat=10.0 + i, lng=20.0 + i)
        paced_geo = GeocoderClient(
            geocoder_stub.base_url, max_retries=0, backoff_s=0.01, rate_per_sec=100.0
        )
        t0 = time.monotonic()
        for i in range(4):
            paced_geo.geocode(f"Town {i}")
        assert time.monotonic() - t0 >= 3 / 100.0 - 0.01


# --- gate 8: error-probe fixtures ------------------------------------------------


def test_error_probe_fixtures(capsys):
    with gate(capsys, 8, "sign-flip and coordinate-copy probes count one each"):
        flipped = BoundingBox(
            -GULF_GOLD_BOX.lon_max,
            GULF_GOLD_BOX.lat_min,
            -GULF_GOLD_BOX.lon_min,
            GULF_GOLD_BOX.lat_max,
        )
        pred = Prediction(record_id="g", approach="a", model="m", bbox=flipped)
        report = analyze_errors([pred], {"g": GULF_GOLD_BOX})
        assert report.sign_flip_suspects == 1
        assert report.coord_copy_suspects == 0

        # a final answer assembled from recalled center extremes
        r01 = make_fixture_records()[0]
        recalled = tuple((m.name, m.gold) for m in r01.mentions)
        copied = Prediction(
            record_id=r01.record_id,
            approach="a",
            model="m",
            bbox=TRACE_MARKDOWN_BOLD_BOX,
            raw_text=TRACE_MARKDOWN_BOLD,
            recalled=recalled,
        )
        report = analyze_errors([copied], {r01.record_id: r01.gold_bbox})
        assert report.coord_copy_suspects == 1
        assert report.sign_flip_suspects == 0
