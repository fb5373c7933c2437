"""Rendering of metric and error reports as tables.

One fixed column set — Approach, Reasoner, Coverage (%), Distance (km),
AreaPrec, AreaRec, AreaF1 — in three formats: aligned text for
terminals, markdown for write-ups, CSV for downstream tooling. Areas
print to three decimals in leading-dot style (".266", "1.000"),
coverage and distance to one decimal, absent values as "--".
"""

from __future__ import annotations

import csv
import io
from typing import Sequence

from .analysis import ErrorReport
from .metrics import MetricsReport

COLUMNS = (
    "Approach",
    "Reasoner",
    "Coverage (%)",
    "Distance (km)",
    "AreaPrec",
    "AreaRec",
    "AreaF1",
)

ABSENT = "--"


def _fmt_area(value: float | None) -> str:
    if value is None:
        return ABSENT
    text = f"{value:.3f}"
    if text.startswith("0."):
        return text[1:]
    if text.startswith("-0."):
        return "-" + text[2:]
    return text


def _fmt_1dp(value: float | None) -> str:
    return ABSENT if value is None else f"{value:.1f}"


def _split_label(label: str) -> tuple[str, str]:
    # Labels are "approach/model"; a label with no slash has no reasoner.
    if "/" in label:
        approach, _, reasoner = label.partition("/")
        return approach, reasoner or ABSENT
    return label, ABSENT


def _rows(entries: Sequence[tuple[str, MetricsReport]]) -> list[tuple[str, ...]]:
    rows = []
    for label, report in entries:
        approach, reasoner = _split_label(label)
        rows.append(
            (
                approach,
                reasoner,
                _fmt_1dp(report.coverage_pct),
                _fmt_1dp(report.mean_distance_km),
                _fmt_area(report.area_precision),
                _fmt_area(report.area_recall),
                _fmt_area(report.area_f1),
            )
        )
    return rows


def _render_text(rows: list[tuple[str, ...]]) -> str:
    table = [COLUMNS, *rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(COLUMNS))]
    lines = []
    for row_no, row in enumerate(table):
        cells = []
        for i, cell in enumerate(row):
            # left-align the name columns, right-align numbers
            cells.append(cell.ljust(widths[i]) if i < 2 else cell.rjust(widths[i]))
        lines.append("  ".join(cells).rstrip())
        if row_no == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _render_markdown(columns: Sequence[str], rows: list[tuple[str, ...]]) -> str:
    lines = ["| " + " | ".join(columns) + " |"]
    lines.append("|" + "|".join(" --- " for _ in columns) + "|")
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def _render_csv(columns: Sequence[str], rows: list[tuple[str, ...]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


ERROR_FIELDS = (
    ("n_scored", "Scored"),
    ("sign_flip_suspects", "Sign-flip suspects"),
    ("coord_copy_suspects", "Coord-copy suspects (0.01 deg)"),
    ("coord_copy_suspects_loose", "Coord-copy suspects (0.1 deg)"),
    ("invalid_parse", "Invalid parses"),
    ("out_of_range_parse", "Out-of-range parses"),
    ("precision_gt_recall", "Precision > recall"),
    ("recall_gt_precision", "Recall > precision"),
)


def render_error_report(errors: ErrorReport, fmt: str = "text") -> str:
    """Render error-probe counts in the same three formats."""
    if fmt == "markdown":
        rows = [(title, str(getattr(errors, name))) for name, title in ERROR_FIELDS]
        return _render_markdown(("Probe", "Count"), rows)
    if fmt == "csv":
        rows = [(name, str(getattr(errors, name))) for name, _ in ERROR_FIELDS]
        return _render_csv(("probe", "count"), rows)
    if fmt == "text":
        width = max(len(title) for _, title in ERROR_FIELDS)
        return "\n".join(
            f"{title.ljust(width)}  {getattr(errors, name)}" for name, title in ERROR_FIELDS
        )
    raise ValueError(f"unknown format {fmt!r}")


def render_report(entries: Sequence[tuple[str, MetricsReport]], fmt: str = "text") -> str:
    """Render labeled metric reports as one table.

    Args:
        entries: (label, report) pairs; a label of the form
            "approach/model" fills the Approach and Reasoner columns.
        fmt: "text", "markdown", or "csv".
    """
    rows = _rows(entries)
    if fmt == "text":
        return _render_text(rows)
    if fmt == "markdown":
        return _render_markdown(COLUMNS, rows)
    if fmt == "csv":
        return _render_csv(COLUMNS, rows)
    raise ValueError(f"unknown format {fmt!r}")
