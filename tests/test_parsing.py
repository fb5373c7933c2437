import time

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fixtures import (
    DIRECT_OUTPUT_A,
    DIRECT_OUTPUT_A_BOX,
    DIRECT_OUTPUT_B,
    DIRECT_OUTPUT_B_BOX,
    DIRECT_OUTPUT_C,
    DIRECT_OUTPUT_C_BOX,
    REPLY_TOKENS,
    TRACE_MARKDOWN_BOLD,
    TRACE_MARKDOWN_BOLD_BOX,
    TRACE_PROSE_ROUNDED,
    TRACE_PROSE_ROUNDED_BOX,
    TRACE_SINGLE_NUMBER_PARENS,
    TRACE_SINGLE_NUMBER_PARENS_BOX,
)
from geobox import BoundingBox, GeoPoint, format_bbox, format_point
from geobox.parsing import _BBOX_RE, _POINT_RE, _last_tuple, parse_bbox, parse_point
from geobox.prompts import PromptKind, system_text

NO_PARSE = (None, ("no_parse",))

# --- exemplar tuples --------------------------------------------------------


def test_point_exemplars_parse():
    assert parse_point(system_text(PromptKind.KNOWLEDGE_POINT)) == (
        GeoPoint(lat=-14.243, lon=-53.189),
        (),
    )


@pytest.mark.parametrize(
    "kind",
    [PromptKind.KNOWLEDGE_BOX, PromptKind.GEO_AUGMENTED_BOX, PromptKind.DIRECT_BOX],
)
def test_box_exemplars_parse(kind):
    assert parse_bbox(system_text(kind)) == (BoundingBox(-73.983, -33.75, -34.793, 5.27), ())


def test_box_exemplars_contain_no_point_tuples():
    assert parse_point(system_text(PromptKind.KNOWLEDGE_BOX)) == NO_PARSE


# --- verbose trace outputs ---------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        (TRACE_PROSE_ROUNDED, TRACE_PROSE_ROUNDED_BOX),
        (TRACE_SINGLE_NUMBER_PARENS, TRACE_SINGLE_NUMBER_PARENS_BOX),
        (TRACE_MARKDOWN_BOLD, TRACE_MARKDOWN_BOLD_BOX),
        (DIRECT_OUTPUT_A, DIRECT_OUTPUT_A_BOX),
        (DIRECT_OUTPUT_B, DIRECT_OUTPUT_B_BOX),
        (DIRECT_OUTPUT_C, DIRECT_OUTPUT_C_BOX),
    ],
)
def test_trace_outputs_parse(text, expected):
    assert parse_bbox(text) == (expected, ())


def test_word_parens_never_match():
    assert parse_bbox("bounded by Oman (the south) and Iran (the north)") == NO_PARSE
    assert parse_point("bounded by Oman (the south) and Iran (the north)") == NO_PARSE


def test_single_number_parens_never_match():
    text = "the longitude of Oman (57.0) and of Iran (53.688)"
    assert parse_bbox(text) == NO_PARSE
    assert parse_point(text) == NO_PARSE


def test_exponent_members_never_match():
    assert parse_bbox("(1e5, 2, 3, 4)") == NO_PARSE
    assert parse_point("(1e5, 2)") == NO_PARSE


def test_last_tuple_wins():
    text = "first guess (0.000, 0.000, 1.000, 1.000), revised (10.0, 20.0, 30.0, 40.0)"
    assert parse_bbox(text) == (BoundingBox(10, 20, 30, 40), ())
    text = "maybe (1.0, 2.0)? no: (3.0, 4.0)"
    assert parse_point(text) == (GeoPoint(lat=3.0, lon=4.0), ())


def test_whitespace_and_newlines_inside_tuple():
    parsed = parse_bbox("( 51.197,\n 12.437 ,63.003 , 32.648 )")
    assert parsed == (BoundingBox(51.197, 12.437, 63.003, 32.648), ())


def test_plus_signs_accepted():
    assert parse_point("(+10.5, -3.25)") == (GeoPoint(lat=10.5, lon=-3.25), ())


# --- validation outcomes -----------------------------------------------------


def test_no_tuple_at_all():
    assert parse_bbox("I cannot determine a bounding box for this location.") == NO_PARSE


def test_order_violation_flagged():
    assert parse_bbox("(10.000, 5.000, 3.000, 12.000)") == (None, ("invalid_order",))


def test_range_violation_flagged():
    assert parse_bbox("(185.000, 10.000, 190.000, 20.000)") == (None, ("invalid_range",))


def test_order_and_range_violations_stack():
    parsed = parse_bbox("(190.0, 50.0, 185.0, -95.0)")
    assert parsed == (None, ("invalid_order", "invalid_range"))


def test_point_range_violation():
    assert parse_point("(95.163, 10.0)") == (None, ("invalid_range",))


def test_point_tuple_order_is_lat_lon():
    assert parse_point("(48.858, 2.2959)") == (GeoPoint(lat=48.858, lon=2.2959), ())


def test_degenerate_tuple_is_valid():
    assert parse_bbox("(5.000, 5.000, 5.000, 5.000)") == (BoundingBox(5, 5, 5, 5), ())


def test_four_tuple_not_a_point_and_two_tuple_not_a_box():
    assert parse_point("(2.293, 48.857, 2.297, 48.859)") == NO_PARSE
    assert parse_bbox("(48.858, 2.2959)") == NO_PARSE


# --- properties ---------------------------------------------------------------

_lat = st.floats(min_value=-90.0, max_value=90.0, allow_nan=False).map(lambda v: round(v, 6))
_lon = st.floats(min_value=-180.0, max_value=180.0, allow_nan=False).map(lambda v: round(v, 6))


@st.composite
def _box(draw):
    lon_a, lon_b = sorted((draw(_lon), draw(_lon)))
    lat_a, lat_b = sorted((draw(_lat), draw(_lat)))
    return BoundingBox(lon_a, lat_a, lon_b, lat_b)


_noise = st.sampled_from(
    [
        "",
        "The bounding box is approximately ",
        "rounded (for simplicity) from Oman (21.0000287): ",
        "**Final Answer:** ",
        "after considering the latitude of Iran (32.6475314),\n",
    ]
)


@given(_box(), _box(), _noise, _noise)
def test_last_box_always_wins(first, second, prefix, middle):
    text = f"{prefix}{format_bbox(first)} {middle}{format_bbox(second)}"
    assert parse_bbox(text) == (second, ())


@given(st.builds(lambda lat, lon: GeoPoint(lat=lat, lon=lon), _lat, _lon), _noise)
def test_point_parse_with_noise(point, prefix):
    assert parse_point(f"{prefix}{format_point(point)}") == (point, ())


_reply = st.lists(st.sampled_from(REPLY_TOKENS), max_size=30).map("".join)


@given(_reply)
@example("")
@example("(1, 2, 3, 4) then (5, 6, 7, 8) (9, 10)")
@example("(1., 2, 3, 4) (0, 1, 2, 3)) (-1, +2, .5, 3)")
def test_parse_bbox_takes_last_findall_match(text):
    matches = _BBOX_RE.findall(text)
    assert _last_tuple(_BBOX_RE, text) == (matches[-1] if matches else None)


@given(_reply)
@example("")
@example("(1, 2) then (3, 4) (5, 6, 7, 8)")
@example("((0, 1) (-1, +2.5 (.5, 3)")
def test_parse_point_takes_last_findall_match(text):
    matches = _POINT_RE.findall(text)
    assert _last_tuple(_POINT_RE, text) == (matches[-1] if matches else None)


# --- long replies -----------------------------------------------------------------


def test_long_transcript_with_many_parentheses_parses_fast():
    # the answer comes first and thousands of non-tuple "(" follow it, so
    # a scan from the end passes every one of them
    filler = "(see step 3) (1, 2, 3 (lon (-4.5, "
    text = "(1.0, 2.0, 3.0, 4.0) " + filler * (64 * 1024 // len(filler))
    assert len(text) > 64 * 1024
    start = time.perf_counter()
    parsed = parse_bbox(text)
    elapsed = time.perf_counter() - start
    assert parsed == (BoundingBox(1.0, 2.0, 3.0, 4.0), ())
    assert elapsed < 0.5


def test_long_transcript_with_many_parentheses_parses_point_fast():
    # the point comes first and thousands of "(" that open no 2-tuple follow
    filler = "(see step 3) (1, 2, 3) (lat (-4.5, "
    text = "(46.5, 6.6) " + filler * (64 * 1024 // len(filler) + 1)
    assert len(text) > 64 * 1024
    start = time.perf_counter()
    parsed = parse_point(text)
    elapsed = time.perf_counter() - start
    assert parsed == (GeoPoint(46.5, 6.6), ())
    assert elapsed < 0.5
