import csv
import io

import pytest

from geobox.analysis import ErrorReport
from geobox.metrics import MetricsReport
from geobox.report import ABSENT, COLUMNS, _fmt_area, render_error_report, render_report


def _report(**overrides):
    base = dict(
        label="direct/gpt-4",
        n_total=500,
        n_covered=450,
        coverage_pct=90.0,
        mean_distance_km=401.6,
        area_precision=0.2656,
        area_recall=0.3871,
        area_f1=0.315,
    )
    base.update(overrides)
    return MetricsReport(**base)


def test_area_formatting_drops_leading_zero():
    assert _fmt_area(0.2656) == ".266"
    assert _fmt_area(0.5) == ".500"
    assert _fmt_area(1.0) == "1.000"
    assert _fmt_area(0.0) == ".000"
    assert _fmt_area(-0.25) == "-.250"
    assert _fmt_area(None) == ABSENT


def test_text_table_layout():
    out = render_report([("direct/gpt-4", _report())], fmt="text")
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[0].split() == [
        "Approach",
        "Reasoner",
        "Coverage",
        "(%)",
        "Distance",
        "(km)",
        "AreaPrec",
        "AreaRec",
        "AreaF1",
    ]
    assert set(lines[1]) <= {"-", " "}
    row = lines[2]
    assert row.startswith("direct")
    for cell in ("gpt-4", "90.0", "401.6", ".266", ".387", ".315"):
        assert cell in row
    assert not any(line.endswith(" ") for line in lines)


def test_absent_values_render_as_dashes():
    report = _report(mean_distance_km=None, area_precision=None, area_recall=None, area_f1=None)
    out = render_report([("knowledge-point/m", report)], fmt="text")
    assert out.splitlines()[2].count(ABSENT) == 4


def test_label_without_slash_has_no_reasoner():
    out = render_report([("finetuned", _report())], fmt="csv")
    row = out.splitlines()[1].split(",")
    assert row[0] == "finetuned"
    assert row[1] == ABSENT


def test_empty_entries_render_header_only():
    out = render_report([], fmt="text")
    assert out.splitlines()[0].startswith("Approach")
    assert len(out.splitlines()) == 2
    assert render_report([], fmt="csv") == ",".join(COLUMNS)


def test_markdown_table():
    out = render_report([("direct/gpt-4", _report())], fmt="markdown")
    lines = out.splitlines()
    assert lines[0] == "| " + " | ".join(COLUMNS) + " |"
    assert all(part.strip() == "---" for part in lines[1].strip("|").split("|"))
    assert lines[2] == "| direct | gpt-4 | 90.0 | 401.6 | .266 | .387 | .315 |"


def test_csv_round_trips():
    entries = [
        ("direct/gpt-4", _report()),
        ("knowledge-point/m", _report(mean_distance_km=None, area_f1=None)),
    ]
    out = render_report(entries, fmt="csv")
    parsed = list(csv.reader(io.StringIO(out)))
    assert parsed[0] == list(COLUMNS)
    assert parsed[1] == ["direct", "gpt-4", "90.0", "401.6", ".266", ".387", ".315"]
    assert parsed[2][3] == ABSENT
    assert parsed[2][6] == ABSENT


def test_row_order_follows_entries():
    entries = [("b/x", _report()), ("a/y", _report())]
    lines = render_report(entries, fmt="csv").splitlines()
    assert lines[1].startswith("b,")
    assert lines[2].startswith("a,")


def test_rendering_is_deterministic():
    entries = [("direct/gpt-4", _report()), ("end-to-end/gpt-4", _report(coverage_pct=77.7))]
    for fmt in ("text", "markdown", "csv"):
        assert render_report(entries, fmt=fmt) == render_report(entries, fmt=fmt)


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        render_report([], fmt="html")
    with pytest.raises(ValueError):
        render_error_report(ErrorReport(), fmt="html")


def _errors():
    return ErrorReport(
        n_scored=20,
        sign_flip_suspects=1,
        coord_copy_suspects=1,
        coord_copy_suspects_loose=2,
        invalid_parse=2,
        out_of_range_parse=1,
        precision_gt_recall=3,
        recall_gt_precision=4,
    )


def test_error_report_text():
    out = render_error_report(_errors(), fmt="text")
    lines = out.splitlines()
    assert len(lines) == 8
    assert lines[0].split()[-1] == "20"
    assert "Sign-flip suspects" in lines[1]
    assert lines[1].split()[-1] == "1"


def test_error_report_csv():
    out = render_error_report(_errors(), fmt="csv")
    rows = dict(line.split(",") for line in out.splitlines()[1:])
    assert rows["coord_copy_suspects_loose"] == "2"
    assert rows["recall_gt_precision"] == "4"


def test_error_report_markdown():
    out = render_error_report(_errors(), fmt="markdown")
    assert out.splitlines()[0] == "| Probe | Count |"
    assert "| Invalid parses | 2 |" in out


def test_error_report_bytes_in_every_format():
    errors = _errors()
    assert render_error_report(errors, fmt="text") == (
        "Scored                          20\n"
        "Sign-flip suspects              1\n"
        "Coord-copy suspects (0.01 deg)  1\n"
        "Coord-copy suspects (0.1 deg)   2\n"
        "Invalid parses                  2\n"
        "Out-of-range parses             1\n"
        "Precision > recall              3\n"
        "Recall > precision              4"
    )
    assert render_error_report(errors, fmt="markdown") == (
        "| Probe | Count |\n"
        "| --- | --- |\n"
        "| Scored | 20 |\n"
        "| Sign-flip suspects | 1 |\n"
        "| Coord-copy suspects (0.01 deg) | 1 |\n"
        "| Coord-copy suspects (0.1 deg) | 2 |\n"
        "| Invalid parses | 2 |\n"
        "| Out-of-range parses | 1 |\n"
        "| Precision > recall | 3 |\n"
        "| Recall > precision | 4 |"
    )
    assert render_error_report(errors, fmt="csv") == (
        "probe,count\n"
        "n_scored,20\n"
        "sign_flip_suspects,1\n"
        "coord_copy_suspects,1\n"
        "coord_copy_suspects_loose,2\n"
        "invalid_parse,2\n"
        "out_of_range_parse,1\n"
        "precision_gt_recall,3\n"
        "recall_gt_precision,4"
    )
