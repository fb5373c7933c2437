import collections
import concurrent.futures
import os
import re
import subprocess
import sys
import time
from contextlib import closing

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fixtures import (
    RECALLER_OUT_OF_RANGE,
    RECALLER_TWO_MENTIONS,
    REPLY_TOKENS,
    TAUPO_DESCRIPTION,
    TAUPO_RECALLED,
    TRACE_MARKDOWN_BOLD,
    TRACE_MARKDOWN_BOLD_BOX,
    golden_cases,
    load_golden,
)
import geobox
from geobox import (
    BoundingBox,
    ChatClient,
    ChatRequest,
    GeoInfo,
    GeoPoint,
    RecalledMention,
    build_prompt,
    extract_mentions,
    extract_prediction,
    mention_sentence,
)
from geobox.netutil import EmptyResponseError, ProtocolError, TransportError
from geobox.prompts import PromptKind
from geobox.parsing import _NUM
from geobox.reasoner import cache_key

# --- prompt assembly vs goldens ---------------------------------------------


@pytest.mark.parametrize("stem,kwargs", golden_cases(), ids=[c[0] for c in golden_cases()])
def test_prompt_matches_golden(stem, kwargs):
    request = build_prompt(**kwargs)
    system, user = load_golden(stem)
    assert request.system == system
    assert request.user == user


def test_chat_request_decoding_defaults():
    request = build_prompt(
        PromptKind.DIRECT_BOX, model="m", description=TAUPO_DESCRIPTION
    )
    assert request.model == "m"


def test_knowledge_payload_without_country():
    request = build_prompt(PromptKind.KNOWLEDGE_BOX, model="m", location_name="Antarctica")
    assert request.user == "Input: Antarctica.\nOutput:"


def test_knowledge_requires_name():
    with pytest.raises(ValueError):
        build_prompt(PromptKind.KNOWLEDGE_POINT, model="m", description="something")


def test_description_kinds_require_description():
    with pytest.raises(ValueError):
        build_prompt(PromptKind.DIRECT_BOX, model="m", location_name="Oman")


def test_recalled_mentions_only_for_geo_augmented():
    with pytest.raises(ValueError):
        build_prompt(
            PromptKind.DIRECT_BOX,
            model="m",
            description=TAUPO_DESCRIPTION,
            recalled=TAUPO_RECALLED,
        )


def test_geo_augmented_degraded_opt_in_matches_direct_user_text():
    degraded = build_prompt(
        PromptKind.GEO_AUGMENTED_BOX,
        model="m",
        description=TAUPO_DESCRIPTION,
    )
    direct = build_prompt(PromptKind.DIRECT_BOX, model="m", description=TAUPO_DESCRIPTION)
    assert degraded.user == direct.user
    assert degraded.system != direct.system


def test_unfound_mention_names_keep_given_order_after_found_ones():
    recalled = (
        ("Zealandia", GeoInfo(name="Zealandia", center=GeoPoint(lat=-40.0, lon=170.0))),
        ("Gondwana", GeoInfo(name="Gondwana", center=GeoPoint(lat=-30.0, lon=20.0))),
    ) + TAUPO_RECALLED[:1]
    request = build_prompt(
        PromptKind.GEO_AUGMENTED_BOX,
        model="m",
        description=TAUPO_DESCRIPTION,
        recalled=recalled,
    )
    waikato = request.user.find("Waikato River has a longitude")
    zealandia = request.user.find("Zealandia has a longitude")
    gondwana = request.user.find("Gondwana has a longitude")
    assert 0 < waikato < zealandia < gondwana


# --- mention sentences ---------------------------------------------------------


def test_mention_sentence_full_precision():
    got = mention_sentence("Persian Gulf", 51.197231065873154, 27.87)
    assert got == "Persian Gulf has a longitude of 51.197231065873154 and latitude of 27.870."


def test_mention_sentence_pads_integers():
    assert mention_sentence("Oman", 57.0, 21.0) == (
        "Oman has a longitude of 57.000 and latitude of 21.000."
    )


def test_extract_mentions_two_sentences():
    got = extract_mentions(RECALLER_TWO_MENTIONS)
    assert got == [
        RecalledMention(name="Champ de Mars", lon=48.855, lat=2.296),
        RecalledMention(name="Paris", lon=48.859, lat=2.264),
    ]
    assert all(m.valid for m in got)


def test_extract_mentions_keeps_out_of_range_values():
    got = extract_mentions(RECALLER_OUT_OF_RANGE)
    assert got == [RecalledMention(name="South America", lon=-13.591, lat=109.712)]
    assert not got[0].valid
    with pytest.raises(ValueError):
        got[0].center


def test_valid_mention_center_is_lat_lon():
    mention = RecalledMention(name="Oman", lon=57.0, lat=21.0000287)
    assert mention.center == GeoPoint(lat=21.0000287, lon=57.0)


def test_extract_mentions_strips_markdown_emphasis():
    text = "**Paris** has a longitude of 2.35 and latitude of 48.85."
    assert extract_mentions(text) == [RecalledMention(name="Paris", lon=2.35, lat=48.85)]


def test_extract_mentions_across_lines():
    text = (
        "Here are the locations:\n"
        "- Oman has a longitude of 57.000 and latitude of 21.000.\n"
        "- Iran has a longitude of 53.688 and latitude of 32.648.\n"
    )
    got = extract_mentions(text)
    assert [m.name for m in got] == ["- Oman", "- Iran"] or [m.name for m in got] == [
        "Oman",
        "Iran",
    ]
    assert [(m.lon, m.lat) for m in got] == [(57.0, 21.0), (53.688, 32.648)]


def test_extract_mentions_name_stops_at_sentence_boundary():
    # the dot inside "St. Petersburg" acts as a boundary; the shortened
    # name is the documented cost of boundary detection
    got = extract_mentions("St. Petersburg has a longitude of 30.3 and latitude of 59.9.")
    assert got == [RecalledMention(name="Petersburg", lon=30.3, lat=59.9)]


def test_extract_mentions_none_found():
    assert extract_mentions("No coordinates here.") == []


def test_extract_mentions_restarts_mid_clause():
    # the second mention starts right where the first ends, with no
    # boundary between them, so its name keeps the leading "and"
    got = extract_mentions(
        "A has a longitude of 1 and latitude of 2 and B has a longitude of 3 and latitude of 4."
    )
    assert [m.name for m in got] == ["A", "and B"]
    assert [(m.lon, m.lat) for m in got] == [(1.0, 2.0), (3.0, 4.0)]


# The reference for extract_mentions: "<Name> has a longitude of <lon>
# and latitude of <lat>", the name reaching back to the previous
# sentence/clause boundary. Its backtracking is quadratic on long
# clauses, which is why extract_mentions does not use it.
MENTION_RE = re.compile(
    rf"([^.!?:;\n]+?)\s+has a longitude of\s+({_NUM})\s+and latitude of\s+({_NUM})"
)


def _finditer_mentions(text):
    mentions = []
    for match in MENTION_RE.finditer(text):
        name = match.group(1).strip().strip("*`_").strip()
        if name:
            mentions.append(
                RecalledMention(name=name, lon=float(match.group(2)), lat=float(match.group(3)))
            )
    return mentions


@given(st.lists(st.sampled_from(REPLY_TOKENS), max_size=30).map("".join))
@example("")
@example("x. A has a longitude of 1 and latitude of 2 B has a longitude of 3 and latitude of 4")
@example("** has a longitude of 1 and latitude of 2; :C has a longitude of 1. and latitude of .5")
@example(
    "Parishas a longitude of 1.0 and latitude of 2.0. "
    "Lyon has a longitude of 4.8 and latitude of 45.7."
)
def test_extract_mentions_matches_finditer(text):
    assert extract_mentions(text) == _finditer_mentions(text)


def test_long_clause_before_a_mention_extracts_fast():
    clause = "the lake lies east of the river and north of the hills " * 300
    text = clause + ". Paris has a longitude of 2.35 and latitude of 48.85."
    assert len(clause) > 16 * 1024
    start = time.perf_counter()
    got = extract_mentions(text)
    elapsed = time.perf_counter() - start
    assert got == [RecalledMention(name="Paris", lon=2.35, lat=48.85)]
    assert elapsed < 0.5


def _timed_extraction(text):
    start = time.perf_counter()
    got = extract_mentions(text)
    return got, time.perf_counter() - start


def test_long_whitespace_run_inside_a_clause_extracts_fast():
    text = "Lake" + " " * (16 * 1024) + "Geneva has a longitude of 6.5 and latitude of 46.4."
    got, elapsed = _timed_extraction(text)
    assert got == [RecalledMention(name="Lake" + " " * (16 * 1024) + "Geneva", lon=6.5, lat=46.4)]
    assert elapsed < 0.5


def test_many_mention_phrases_with_failing_numbers_extract_fast():
    text = "Paris has a longitude of about 2 and latitude of 48 " * 4000
    got, elapsed = _timed_extraction(text)
    assert got == []
    assert elapsed < 0.5


def test_boundary_and_space_runs_before_each_phrase_extract_fast():
    text = ("x." + "\n" * 20 + " has a longitude of 1 and latitude of 2") * 3000
    got, elapsed = _timed_extraction(text)
    assert got == _finditer_mentions(text) == []
    assert elapsed < 0.5


def test_str_isspace_agrees_with_the_regex_whitespace_class():
    # extract_mentions reads whitespace runs with str.isspace, while
    # MENTION_RE reads them with \s; the two must be one set.
    chars = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\s", chars) == [c for c in chars if c.isspace()]


# --- response interpretation ----------------------------------------------------


def test_extract_prediction_point_kind():
    got = extract_prediction(PromptKind.KNOWLEDGE_POINT, "(48.858, 2.2959)")
    assert got.point == GeoPoint(lat=48.858, lon=2.2959)
    assert got.bbox is None
    assert got.flags == ()


def test_extract_prediction_point_range_flag():
    got = extract_prediction(PromptKind.KNOWLEDGE_POINT, "(95.163, 10.0)")
    assert got.point is None
    assert got.flags == ("invalid_range",)


def test_extract_prediction_box_from_trace():
    got = extract_prediction(PromptKind.GEO_AUGMENTED_BOX, TRACE_MARKDOWN_BOLD)
    assert got.bbox == TRACE_MARKDOWN_BOLD_BOX


def test_extract_prediction_box_flags():
    assert extract_prediction(PromptKind.DIRECT_BOX, "(10.0, 5.0, 3.0, 12.0)").flags == (
        "invalid_order",
    )
    assert extract_prediction(PromptKind.DIRECT_BOX, "(185.0, 10.0, 190.0, 20.0)").flags == (
        "invalid_range",
    )
    assert extract_prediction(PromptKind.DIRECT_BOX, "(190.0, 50.0, 185.0, -95.0)").flags == (
        "invalid_order",
        "invalid_range",
    )
    assert extract_prediction(PromptKind.DIRECT_BOX, "no idea").flags == ("no_parse",)


def test_extract_prediction_recaller_kind():
    got = extract_prediction(PromptKind.MENTION_RECALLER, RECALLER_TWO_MENTIONS)
    assert got.bbox is None and got.point is None
    assert [m.name for m in got.mentions] == ["Champ de Mars", "Paris"]


# --- cache keys -------------------------------------------------------------------


def test_cache_key_is_stable():
    assert cache_key("m", "s", "u") == cache_key("m", "s", "u")
    assert len(cache_key("m", "s", "u")) == 64


def test_cache_key_unique_over_many_inputs():
    keys = {cache_key("m", "s", f"u{i}") for i in range(100_000)}
    assert len(keys) == 100_000


def test_cache_key_sensitive_to_every_field():
    base = cache_key("m", "s", "u")
    assert cache_key("m2", "s", "u") != base
    assert cache_key("m", "s2", "u") != base
    assert cache_key("m", "s", "u2") != base


def test_importing_the_cli_leaves_hashlib_unloaded():
    # hashlib maps OpenSSL; only a command that builds a cache key pays for it.
    src = os.path.dirname(os.path.dirname(geobox.__file__))
    code = f"import sys; sys.path.insert(0, {src!r}); import geobox.cli; print(sorted(sys.modules))"
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert "'hashlib'" not in out
    assert "'geobox.reasoner'" in out


# --- chat client over HTTP ----------------------------------------------------------


def _client(stub, **kw):
    kw.setdefault("backoff_s", 0.01)
    return ChatClient(stub.base_url, **kw)


def _request(user="where is Oman?"):
    return ChatRequest(model="test-model", system="sys", user=user)


def test_complete_round_trip(chat_stub):
    chat_stub.script("Oman", "(57.000, 21.000, 59.000, 23.000)")
    client = _client(chat_stub, api_key="k-123")
    content = client.complete(_request())
    assert content == "(57.000, 21.000, 59.000, 23.000)"
    logged = chat_stub.core.requests[-1]
    assert logged["path"] == "/chat/completions"
    assert logged["model"] == "test-model"
    assert logged["system"] == "sys"
    assert logged["user"] == "where is Oman?"
    assert logged["temperature"] == 0.0
    assert logged["max_tokens"] == 1024
    assert logged["auth"] == "Bearer k-123"


def test_complete_without_api_key_sends_no_auth(chat_stub, monkeypatch):
    monkeypatch.delenv("LLM_API_KEY", raising=False)
    chat_stub.script("Oman", "ok")
    _client(chat_stub).complete(_request())
    assert chat_stub.core.requests[-1]["auth"] is None


def test_base_url_trailing_slash_tolerated(chat_stub):
    chat_stub.script("Oman", "ok")
    client = ChatClient(chat_stub.base_url + "/", backoff_s=0.01)
    assert client.complete(_request()) == "ok"
    assert chat_stub.core.requests[-1]["path"] == "/chat/completions"


def test_base_url_from_env(chat_stub, monkeypatch):
    monkeypatch.setenv("LLM_API_BASE", chat_stub.base_url)
    chat_stub.script("Oman", "ok")
    assert ChatClient(backoff_s=0.01).complete(_request()) == "ok"


def test_no_endpoint_is_an_error(monkeypatch):
    monkeypatch.delenv("LLM_API_BASE", raising=False)
    with pytest.raises(ValueError):
        ChatClient()


def test_zero_rate_is_rejected_not_unpaced(chat_stub):
    # rate_per_sec=None means unpaced; any other value must be positive
    with pytest.raises(ValueError):
        _client(chat_stub, rate_per_sec=0)


def test_complete_memory_cache(chat_stub):
    chat_stub.script("Oman", "answer")
    client = _client(chat_stub)
    assert client.complete(_request()) == "answer"
    assert client.complete(_request()) == "answer"
    assert chat_stub.core.request_count == 1
    assert client.stats["cache_hits"] == 1


class _SlowCounter(collections.Counter):
    """A Counter whose reads yield the processor, widening any read-modify-write race."""

    def __getitem__(self, key):
        value = super().__getitem__(key)
        time.sleep(0.0005)
        return value


def test_stats_count_every_hit_from_many_threads(chat_stub):
    chat_stub.script("Oman", "answer")
    client = _client(chat_stub)
    client.complete(_request())
    client.stats = _SlowCounter()
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: client.complete(_request()), range(200), timeout=60))
    assert results == ["answer"] * 200
    assert client.stats["cache_hits"] == 200
    assert chat_stub.core.request_count == 1


def test_complete_cache_file_survives_restart(chat_stub, tmp_path):
    cache = tmp_path / "llm_cache.jsonl"
    chat_stub.script("Oman", "answer")
    with closing(_client(chat_stub, cache_path=cache)) as client:
        client.complete(_request())

    fresh = _client(chat_stub, cache_path=cache)
    assert fresh.complete(_request()) == "answer"
    fresh.close()
    assert fresh.stats["requests"] == 0
    assert chat_stub.core.request_count == 1


def test_complete_retries_then_succeeds(chat_stub):
    chat_stub.script("Oman", "answer")
    chat_stub.core.fail_next(1, status=500)
    client = _client(chat_stub)
    assert client.complete(_request()) == "answer"
    assert client.stats["retries"] == 1
    assert chat_stub.core.request_count == 2


def test_complete_gives_up_after_retries(chat_stub):
    chat_stub.core.fail_next(10, status=502)
    client = _client(chat_stub, max_retries=2)
    with pytest.raises(TransportError):
        client.complete(_request())
    assert chat_stub.core.request_count == 3


def test_complete_malformed_body_is_protocol_error(chat_stub):
    chat_stub.core.malform_next()
    with pytest.raises(ProtocolError):
        _client(chat_stub).complete(_request())


def test_complete_empty_content_is_empty_response_error():
    from stubs import ChatStub

    with ChatStub(default="   ") as stub:
        client = ChatClient(stub.base_url, backoff_s=0.01)
        with pytest.raises(EmptyResponseError):
            client.complete(_request())
        # the empty answer must not have been cached
        with pytest.raises(EmptyResponseError):
            client.complete(_request())
        assert stub.core.request_count == 2


def test_complete_non_retryable_4xx_fails_fast(chat_stub):
    chat_stub.core.fail_next(1, status=403)
    client = _client(chat_stub)
    with pytest.raises(ProtocolError):
        client.complete(_request())
    assert chat_stub.core.request_count == 1


# --- render/parse closure -----------------------------------------------------------


def test_extraction_closes_over_rendering():
    from geobox import format_bbox

    box = BoundingBox(-73.983, -33.75, -34.793, 5.27)
    got = extract_prediction(PromptKind.DIRECT_BOX, format_bbox(box))
    assert got.bbox == box
