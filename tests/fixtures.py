"""Shared fixture data: sample model outputs and a 20-record dataset.

The trace constants are real-world-shaped reasoning transcripts whose
prose quotes many numbers before committing to a final tuple — exactly
the inputs the extraction rules exist for. The 20-record dataset drives
the pipeline and CLI tests with scripted reasoner outputs chosen so that
coverage, skew, and probe counts are hand-computable.
"""

from __future__ import annotations

import pathlib

from geobox import BoundingBox, GazetteerStore, GeoInfo, GeoPoint, format_bbox
from geobox.dataset import LocationRecord, Mention
from geobox.prompts import PromptKind

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"

# --- sample reasoner outputs for parser tests -----------------------------

# A verbose prose trace: intermediate values are bare numbers, names are
# quoted in word-parentheses, one final 4-tuple at the end.
TRACE_PROSE_ROUNDED = (
    "To find the bounding box of the described location, we need to determine the "
    "minimum and maximum longitudes and latitudes. {...} The minimum longitude is "
    "approximately 51.1972 (Persian Gulf) and the maximum longitude is approximately "
    "63.0027 (Arabian Sea) and then further to 71.2475 (Pakistan), but since the gulf "
    "is between the Arabian Sea and the Strait of Hormuz, which then runs to the "
    "Persian Gulf, the maximum longitude should be around the Arabian Sea. {...} So "
    "the maximum longitude should be around 63.0027.  The minimum latitude is "
    "approximately 12.4369 (Arabian Sea) and the maximum latitude is approximately "
    "32.6475 (Iran). So, the bounding box is approximately: "
    "(51.197, 12.437, 63.003, 32.648)"
)
TRACE_PROSE_ROUNDED_BOX = BoundingBox(51.197, 12.437, 63.003, 32.648)

# A trace that wraps single numbers in parentheses while reasoning; only
# the final tuple has four members.
TRACE_SINGLE_NUMBER_PARENS = (
    "{...} - Minimum longitude: {...} we consider the longitude of the United Arab "
    "Emirates (53.9994829) and the Persian Gulf (51.197231065873154). The minimum "
    "longitude is 51.197231065873154, but since {...} Therefore, we choose "
    "51.197231065873154 as the minimum longitude, but round it to 51.2 for "
    "simplicity.  - Minimum latitude: The location is bounded by Oman on the south, "
    "so we consider the latitude of Oman (21.0000287). The minimum latitude is "
    "21.0000287, but we round it to 21.0 for simplicity.  - Maximum longitude: {...} "
    "we consider the longitude of the Arabian Sea (63.002662154702726) {...} "
    "Therefore, we choose 63.002662154702726 as the maximum longitude, but round it "
    "to 63.0 for simplicity.  - Maximum latitude: The location is bounded by Iran on "
    "the north, so we consider the latitude of Iran (32.6475314). The maximum "
    "latitude is 32.6475314, but we round it to 32.7 for simplicity.  The bounding "
    "box of the location is (51.2, 21.0, 63.0, 32.7)."
)
TRACE_SINGLE_NUMBER_PARENS_BOX = BoundingBox(51.2, 21.0, 63.0, 32.7)

# A markdown-heavy trace ending in a bold final answer.
TRACE_MARKDOWN_BOLD = (
    "{...} From these coordinates, the **minimum longitude** is approximately "
    "**51.197** (Persian Gulf), and the **maximum longitude** is approximately "
    "**63.003** (Arabian Sea). The **minimum latitude** is approximately **21.000** "
    "(Oman), and the **maximum latitude** is approximately **32.648** (Iran).  "
    "### Final Answer: **(51.197, 21.000, 63.003, 32.648)**"
)
TRACE_MARKDOWN_BOLD_BOX = BoundingBox(51.197, 21.0, 63.003, 32.648)

# Bare-tuple answers in different precision habits.
DIRECT_OUTPUT_A = "(54.983, 22.983, 66.417, 26.750)"
DIRECT_OUTPUT_A_BOX = BoundingBox(54.983, 22.983, 66.417, 26.75)
DIRECT_OUTPUT_B = "(58.240, 23.700, 63.320, 26.750)"
DIRECT_OUTPUT_B_BOX = BoundingBox(58.24, 23.7, 63.32, 26.75)
DIRECT_OUTPUT_C = "(58.0, 23.0, 62.0, 28.0)"
DIRECT_OUTPUT_C_BOX = BoundingBox(58.0, 23.0, 62.0, 28.0)

GULF_GOLD_TEXT = "(56.2683402, 22.4824554, 61.8012822, 25.9456285)"
GULF_GOLD_BOX = BoundingBox(56.2683402, 22.4824554, 61.8012822, 25.9456285)

# Recaller-style outputs.
RECALLER_TWO_MENTIONS = (
    "Champ de Mars has a longitude of 48.855 and latitude of 2.296. "
    "Paris has a longitude of 48.859 and latitude of 2.264."
)
RECALLER_OUT_OF_RANGE = "South America has a longitude of -13.591 and latitude of 109.712."

# Pieces that model replies are built from in the extraction property
# tests: clause boundaries, whitespace (with characters only Unicode
# calls whitespace, and newlines inside runs), tuple punctuation, signed
# decimals (some not plain, like "1." and ".5"), words and the fixed
# mention-sentence phrases.
REPLY_TOKENS = (
    *".!?:;\n",
    " ",
    "  ",
    "\t",
    "\x1c",
    "\u00a0",
    "\u2028",
    " \n ",
    "\n\n",
    "(",
    ")",
    ",",
    ", ",
    "1",
    "1.",
    ".5",
    "+3.25",
    "-12.0",
    "1e5",
    "(0, 1",
    ", 2, 3)",
    "A",
    "New York",
    "**",
    "has a longitude of",
    "and latitude of",
    " has a longitude of ",
    " and latitude of ",
)

# --- prompt goldens ----------------------------------------------------------

TAUPO_DESCRIPTION = (
    "The location is a vast volcanic lake on the North Island, fed by the "
    "Tongariro River and drained by the Waikato River."
)

# Deliberately not in appearance order; prompt assembly must sort them.
TAUPO_RECALLED = (
    ("Waikato River", GeoInfo(name="Waikato River", center=GeoPoint(lat=-37.452, lon=175.152))),
    ("North Island", GeoInfo(name="North Island", center=GeoPoint(lat=-38.653, lon=175.474))),
    (
        "Tongariro River",
        GeoInfo(name="Tongariro River", center=GeoPoint(lat=-38.897, lon=175.792)),
    ),
)


def golden_cases() -> list[tuple[str, dict]]:
    """(golden file stem, build_prompt kwargs) for all ten template forms."""
    cases = []
    for kind in PromptKind:
        for few_shot in (True, False):
            stem = f"{kind.value}_{'fewshot' if few_shot else 'zeroshot'}"
            kwargs: dict = {"kind": kind, "model": "test-model", "few_shot": few_shot}
            if kind in (PromptKind.KNOWLEDGE_POINT, PromptKind.KNOWLEDGE_BOX):
                kwargs["location_name"] = "Lake Taupo"
                kwargs["country"] = "New Zealand"
            else:
                kwargs["description"] = TAUPO_DESCRIPTION
                if kind is PromptKind.GEO_AUGMENTED_BOX:
                    kwargs["recalled"] = TAUPO_RECALLED
            cases.append((stem, kwargs))
    return cases


def load_golden(stem: str) -> tuple[str, str]:
    """Read one golden file into (system_text, user_text)."""
    raw = (GOLDEN_DIR / f"{stem}.txt").read_text(encoding="utf-8")
    if not raw.startswith("<<<SYSTEM>>>\n") or not raw.endswith("\n"):
        raise ValueError(f"golden {stem} is malformed")
    body = raw[len("<<<SYSTEM>>>\n") : -1]
    system, sep, user = body.partition("\n<<<USER>>>\n")
    if not sep:
        raise ValueError(f"golden {stem} is missing the user marker")
    return system, user


# --- the 20-record dataset -------------------------------------------------


def _mention(name: str, lon: float, lat: float) -> Mention:
    return Mention(name=name, gold=GeoInfo(name=name, center=GeoPoint(lat=lat, lon=lon)))


def make_fixture_records() -> list[LocationRecord]:
    """Twenty records with gold boxes and gold-annotated mentions."""
    return [
        LocationRecord(
            record_id="r01",
            description=(
                "The location is a gulf reaching from the Arabian Sea to the Strait "
                "of Hormuz, with Oman to the south, Iran to the north, and the "
                "Persian Gulf lying further west."
            ),
            gold_bbox=GULF_GOLD_BOX,
            mentions=(
                _mention("Arabian Sea", 63.002662154702726, 12.4368972),
                _mention("Strait of Hormuz", 56.20277021626677, 26.449406099999997),
                _mention("Oman", 57.0, 21.0000287),
                _mention("Iran", 53.688, 32.6475314),
                _mention("Persian Gulf", 51.197231065873154, 27.87),
            ),
            gold_name="Gulf of Oman",
            gold_country="Oman",
        ),
        LocationRecord(
            record_id="r02",
            description=(
                "The location is a shallow bay that opens into the Gulf of Mexico "
                "near Galveston."
            ),
            gold_bbox=BoundingBox(-96.163, 28.0, -94.163, 30.0),
            mentions=(
                _mention("Gulf of Mexico", -90.0, 25.0),
                _mention("Galveston", -94.7977, 29.3013),
            ),
            gold_name="Galveston Bay",
            gold_country="United States",
        ),
        LocationRecord(
            record_id="r03",
            description=(
                "The location is a remote research outpost on the polar plateau of "
                "Antarctica."
            ),
            gold_bbox=BoundingBox(-10.0, -85.0, 10.0, -75.0),
            mentions=(_mention("Antarctica", 0.0, -82.0),),
            gold_name="Dome Research Station",
        ),
        LocationRecord(
            record_id="r04",
            description=(
                "The location is an island arc northeast of Fiji, stretching toward "
                "the date line."
            ),
            gold_bbox=BoundingBox(176.0, -20.0, 180.0, -12.0),
            mentions=(_mention("Fiji", 178.0, -17.8),),
            gold_name="Fiji Outer Arc",
            gold_country="Fiji",
        ),
        LocationRecord(
            record_id="r05",
            description="The location is a highland plateau northeast of Kano.",
            gold_bbox=BoundingBox(8.0, 10.0, 12.0, 13.0),
            mentions=(_mention("Kano", 8.5167, 12.0),),
            gold_name="Jos Plateau",
            gold_country="Nigeria",
        ),
        LocationRecord(
            record_id="r06",
            description="The location is a wine-growing valley between Florence and Siena.",
            gold_bbox=BoundingBox(10.0, 40.0, 20.0, 50.0),
            mentions=(
                _mention("Florence", 11.2558, 43.7696),
                _mention("Siena", 11.3308, 43.3188),
            ),
            gold_name="Chianti Hills",
            gold_country="Italy",
        ),
        LocationRecord(
            record_id="r07",
            description="The location is a stretch of sea between Sumatra and Borneo.",
            gold_bbox=BoundingBox(100.0, -10.0, 110.0, 0.0),
            mentions=(
                _mention("Sumatra", 101.0, -0.5895),
                _mention("Borneo", 114.0, 0.9619),
            ),
            gold_name="Karimata Strait",
            gold_country="Indonesia",
        ),
        LocationRecord(
            record_id="r08",
            description="The location is a fjord system cutting into the coast south of Bergen.",
            gold_bbox=BoundingBox(4.5, 59.0, 7.0, 61.0),
            mentions=(_mention("Bergen", 5.33, 60.39),),
            gold_name="Hardangerfjord",
            gold_country="Norway",
        ),
        LocationRecord(
            record_id="r09",
            description="The location is a desert basin between Alice Springs and Uluru.",
            gold_bbox=BoundingBox(129.0, -27.0, 136.0, -22.0),
            mentions=(
                _mention("Alice Springs", 133.8807, -23.698),
                _mention("Uluru", 131.0369, -25.3444),
            ),
            gold_name="Amadeus Basin",
            gold_country="Australia",
        ),
        LocationRecord(
            record_id="r10",
            description=(
                "The location is a river delta where the Mekong meets the sea south "
                "of Can Tho."
            ),
            gold_bbox=BoundingBox(104.5, 8.5, 107.0, 11.0),
            mentions=(
                _mention("Mekong", 105.8, 10.2),
                _mention("Can Tho", 105.7469, 10.0452),
            ),
            gold_name="Mekong Delta",
            gold_country="Vietnam",
        ),
        LocationRecord(
            record_id="r11",
            description="The location is an alpine pass on the road from Innsbruck to Bolzano.",
            gold_bbox=BoundingBox(10.8, 46.0, 12.0, 47.8),
            mentions=(
                _mention("Innsbruck", 11.4041, 47.2692),
                _mention("Bolzano", 11.3548, 46.4983),
            ),
        ),
        LocationRecord(
            record_id="r12",
            description=(
                "The location is a caldera lake in the highlands west of Addis Ababa."
            ),
            gold_bbox=BoundingBox(37.0, 7.5, 40.0, 10.0),
            mentions=(_mention("Addis Ababa", 38.7578, 8.9806),),
        ),
        LocationRecord(
            record_id="r13",
            description="The location is a peninsula enclosing a bay across from Auckland.",
            gold_bbox=BoundingBox(174.0, -37.5, 176.0, -36.0),
            mentions=(_mention("Auckland", 174.7633, -36.8485),),
        ),
        LocationRecord(
            record_id="r14",
            description=(
                "The location is a chain of barrier islands sheltering lagoons along "
                "the coast near Maceio."
            ),
            gold_bbox=BoundingBox(-36.5, -11.0, -35.0, -9.0),
            mentions=(_mention("Maceio", -35.7353, -9.6658),),
        ),
        LocationRecord(
            record_id="r15",
            description="The location is a forested escarpment rising behind Freetown.",
            gold_bbox=BoundingBox(-13.9, 7.9, -12.7, 9.1),
            mentions=(_mention("Freetown", -13.2317, 8.4657),),
        ),
        LocationRecord(
            record_id="r16",
            description=(
                "The location is a high steppe corridor between Ulaanbaatar and "
                "Karakorum."
            ),
            gold_bbox=BoundingBox(101.5, 45.8, 108.5, 49.0),
            mentions=(
                _mention("Ulaanbaatar", 106.9057, 47.8864),
                _mention("Karakorum", 102.845, 47.1975),
            ),
        ),
        LocationRecord(
            record_id="r17",
            description="The location is a sound dotted with islands northwest of Seattle.",
            gold_bbox=BoundingBox(-123.5, 47.0, -122.0, 48.5),
            mentions=(_mention("Seattle", -122.3321, 47.6062),),
        ),
        LocationRecord(
            record_id="r18",
            description="The location is a salt flat plateau southwest of Uyuni.",
            gold_bbox=BoundingBox(-68.5, -21.5, -66.0, -19.8),
            mentions=(_mention("Uyuni", -66.825, -20.4597),),
        ),
        LocationRecord(
            record_id="r19",
            description="The location is a terraced valley in the mountains north of Sapa.",
            gold_bbox=BoundingBox(103.0, 22.0, 104.8, 23.2),
            mentions=(_mention("Sapa", 103.844, 22.336),),
        ),
        LocationRecord(
            record_id="r20",
            description=(
                "The location is an archipelago scattered across the strait between "
                "Helsinki and Tallinn."
            ),
            gold_bbox=BoundingBox(23.5, 59.0, 26.0, 60.8),
            mentions=(
                _mention("Helsinki", 24.9384, 60.1699),
                _mention("Tallinn", 24.7536, 59.437),
            ),
        ),
    ]


def make_fixture_gazetteer(records=None) -> GazetteerStore:
    """A store holding every fixture mention's gold info."""
    store = GazetteerStore()
    seen = set()
    for record in records or make_fixture_records():
        for mention in record.mentions:
            if mention.gold is not None and mention.name not in seen:
                seen.add(mention.name)
                store.add(mention.gold)
    return store


def echo_gold_script(records=None) -> dict[str, str]:
    """description -> canonical gold box text, for the echo scenario."""
    return {
        r.description: format_bbox(r.gold_bbox) for r in (records or make_fixture_records())
    }


def mixed_failure_script(records=None) -> dict[str, str]:
    """description -> scripted reasoner output for the mixed scenario.

    Hand-computed expectations over the 20 records:
      covered 17/20 (r03 no parse, r04 range-invalid, r05 order-invalid)
      -> coverage 85.0%
      sign_flip_suspects 1 (r02: both lons negated)
      coord_copy_suspects 1 (r01: 3 of 4 edges within 0.01 deg of the
        recalled extremes; lat_min 21.000 is Oman's latitude but the
        recalled minimum is Arabian Sea's 12.4369, so that edge misses)
      invalid_parse 2 (r04, r05), out_of_range_parse 1 (r04)
      precision > recall 1 (r06, prediction strictly inside gold)
      recall > precision 2 (r01 and r07, predictions covering gold)
    """
    records = records or make_fixture_records()
    script = echo_gold_script(records)
    by_id = {r.record_id: r for r in records}
    script[by_id["r01"].description] = TRACE_MARKDOWN_BOLD
    script[by_id["r02"].description] = "(94.163, 28.000, 96.163, 30.000)"
    script[by_id["r03"].description] = "I cannot determine a bounding box for this location."
    script[by_id["r04"].description] = "(185.000, 10.000, 190.000, 20.000)"
    script[by_id["r05"].description] = "(10.000, 5.000, 3.000, 12.000)"
    script[by_id["r06"].description] = "(12.000, 42.000, 18.000, 48.000)"
    script[by_id["r07"].description] = "(95.000, -15.000, 115.000, 5.000)"
    return script

MIXED_EXPECT = {
    "n_total": 20,
    "n_covered": 17,
    "coverage_pct": 85.0,
    "sign_flip_suspects": 1,
    "coord_copy_suspects": 1,
    "coord_copy_suspects_loose": 1,
    "invalid_parse": 2,
    "out_of_range_parse": 1,
    "precision_gt_recall": 1,
    "recall_gt_precision": 2,
}
