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

Each parser returns the geometry with the prediction's own flags. A
usable tuple gives ``(geometry, ())``. Otherwise the geometry is None and
the flags tell "the model did not answer" (``no_parse``) from "the model
answered, badly" (``invalid_order``, ``invalid_range``).
"""

from __future__ import annotations

import re

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


def parse_point(text: str) -> tuple[GeoPoint | None, tuple[str, ...]]:
    """The last ``(lat, lon)`` tuple in text; flags ``no_parse`` or ``invalid_range``."""
    groups = _last_tuple(_POINT_RE, text)
    if groups is None:
        return None, ("no_parse",)
    lat, lon = (float(v) for v in groups)
    if -90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0:
        return GeoPoint(lat=lat, lon=lon), ()
    return None, ("invalid_range",)


def parse_bbox(text: str) -> tuple[BoundingBox | None, tuple[str, ...]]:
    """The last ``(lon_min, lat_min, lon_max, lat_max)`` tuple in text.

    Flags: ``no_parse``, or ``invalid_order`` (a min above its max) and
    ``invalid_range``, in that order, for each rule the tuple breaks.
    """
    groups = _last_tuple(_BBOX_RE, text)
    if groups is None:
        return None, ("no_parse",)
    lon_min, lat_min, lon_max, lat_max = (float(v) for v in groups)
    flags = ()
    if lon_min > lon_max or lat_min > lat_max:
        flags += ("invalid_order",)
    if not (
        -180.0 <= lon_min <= 180.0
        and -180.0 <= lon_max <= 180.0
        and -90.0 <= lat_min <= 90.0
        and -90.0 <= lat_max <= 90.0
    ):
        flags += ("invalid_range",)
    if flags:
        return None, flags
    return BoundingBox(lon_min, lat_min, lon_max, lat_max), ()
