"""Extraction of coordinate tuples from free-form model output.

Model responses range from a bare ``(lon, lat, lon, lat)`` tuple to long
chains of reasoning that quote many numbers along the way. The contract
here: scan for parenthesized tuples of plain decimal numbers with the
exact arity wanted (2 for points, 4 for boxes), take the LAST one, and
only then validate it. Parenthesized words and single numbers — both
common in verbose traces — never match.

The scan runs from the end: a tuple holds no parenthesis, so no two
tuples overlap and the last one is the one at the rightmost ``(`` that
opens a tuple. No tuple element matches ``(``, so an attempt that fails
at one ``(`` stops before the next: each character is read about once
and the cost is linear in the text's length.

Validation failures are not discarded: a tuple that is out of range or
mis-ordered is kept with its values so callers can distinguish "the
model answered, badly" from "the model did not answer".
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .geo import BoundingBox, GeoPoint

# Plain decimal numbers only: the textual protocol never uses exponents,
# and admitting them would let fragments like "1e5" slip into tuples.
_NUM = r"[-+]?\d+(?:\.\d+)?"
_POINT_RE = re.compile(rf"\(\s*({_NUM})\s*,\s*({_NUM})\s*\)")
_BBOX_RE = re.compile(
    rf"\(\s*({_NUM})\s*,\s*({_NUM})\s*,\s*({_NUM})\s*,\s*({_NUM})\s*\)"
)


def _last_tuple(pattern: re.Pattern[str], text: str) -> tuple[str, ...] | None:
    """Groups of the last non-overlapping ``pattern`` match, as ``findall(text)[-1]``."""
    end = len(text)
    while (start := text.rfind("(", 0, end)) >= 0:
        match = pattern.match(text, start)
        if match:
            return match.groups()
        end = start
    return None


@dataclass(frozen=True)
class ParsedPoint:
    """Outcome of scanning text for a ``(lat, lon)`` tuple.

    ``values`` is None when no 2-tuple was found at all. ``point`` is set
    only when the tuple also passed range validation; otherwise ``errors``
    names what failed ("range").
    """

    values: tuple[float, float] | None
    point: GeoPoint | None
    errors: tuple[str, ...] = ()

    @property
    def found(self) -> bool:
        return self.values is not None

    @property
    def ok(self) -> bool:
        return self.point is not None


@dataclass(frozen=True)
class ParsedBox:
    """Outcome of scanning text for a ``(lon_min, lat_min, lon_max, lat_max)`` tuple.

    Same three-way shape as ParsedPoint; ``errors`` may contain "order"
    (min/max inverted), "range" (coordinate outside valid bounds), or both.
    """

    values: tuple[float, float, float, float] | None
    box: BoundingBox | None
    errors: tuple[str, ...] = ()

    @property
    def found(self) -> bool:
        return self.values is not None

    @property
    def ok(self) -> bool:
        return self.box is not None


def parse_point(text: str) -> ParsedPoint:
    """Extract the last ``(lat, lon)`` tuple from text.

    Args:
        text: arbitrary model output.

    Returns:
        ParsedPoint. Out-of-range values are retained with
        ``errors=("range",)`` and no point.
    """
    groups = _last_tuple(_POINT_RE, text)
    if groups is None:
        return ParsedPoint(values=None, point=None)
    lat, lon = (float(v) for v in groups)
    if -90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0:
        return ParsedPoint(values=(lat, lon), point=GeoPoint(lat=lat, lon=lon))
    return ParsedPoint(values=(lat, lon), point=None, errors=("range",))


def parse_bbox(text: str) -> ParsedBox:
    """Extract the last ``(lon_min, lat_min, lon_max, lat_max)`` tuple from text.

    Args:
        text: arbitrary model output.

    Returns:
        ParsedBox. Order violations (lon_min > lon_max or
        lat_min > lat_max) and range violations are flagged in ``errors``
        with the raw values retained; a tuple with both problems carries
        both flags.
    """
    groups = _last_tuple(_BBOX_RE, text)
    if groups is None:
        return ParsedBox(values=None, box=None)
    lon_min, lat_min, lon_max, lat_max = (float(v) for v in groups)
    values = (lon_min, lat_min, lon_max, lat_max)
    errors: list[str] = []
    if lon_min > lon_max or lat_min > lat_max:
        errors.append("order")
    if not (
        -180.0 <= lon_min <= 180.0
        and -180.0 <= lon_max <= 180.0
        and -90.0 <= lat_min <= 90.0
        and -90.0 <= lat_max <= 90.0
    ):
        errors.append("range")
    if errors:
        return ParsedBox(values=values, box=None, errors=tuple(errors))
    return ParsedBox(values=values, box=BoundingBox(*values))
