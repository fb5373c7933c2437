import dataclasses
import signal
import sys
import threading

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fixtures import (
    REPLY_TOKENS,
    RECALLER_OUT_OF_RANGE,
    echo_gold_script,
    make_fixture_gazetteer,
    make_fixture_records,
)
from geobox import (
    BoundingBox,
    ChatClient,
    GazetteerStore,
    GeocoderClient,
    GeoInfo,
    GeoPoint,
    LocationRecord,
    Mention,
)
from geobox.pipeline import Approach, ExperimentConfig, RunDeps, run_experiment, run_record

# --- plumbing ----------------------------------------------------------------


def _chat(stub, **kw):
    kw.setdefault("backoff_s", 0.01)
    return ChatClient(stub.base_url, **kw)


def _script_echo(stub, records):
    for description, reply in echo_gold_script(records).items():
        stub.script(description, reply)


def test_approach_facts():
    assert Approach.GEOAUG_ORACLE.required_deps == ("chat", "store")
    assert Approach.GEOAUG_REMOTE.required_deps == ("chat", "geocoder")
    assert Approach.END_TO_END.required_deps == ("chat",)
    assert ExperimentConfig(Approach.DIRECT, "m-7b").label == "direct/m-7b"


def test_missing_deps_rejected(records, chat_stub):
    deps = RunDeps(chat=_chat(chat_stub))
    for approach in (Approach.GEOAUG_ORACLE, Approach.GEOAUG_REMOTE):
        with pytest.raises(ValueError):
            run_experiment(ExperimentConfig(approach, "m"), records, deps)


@pytest.mark.parametrize(
    ("approach", "missing"),
    [
        (Approach.DIRECT, "chat"),
        (Approach.GEOAUG_ORACLE, "store"),
        (Approach.GEOAUG_REMOTE, "geocoder"),
    ],
)
@pytest.mark.parametrize("entry", [run_record, run_experiment], ids=lambda f: f.__name__)
def test_a_missing_dependency_is_named_before_any_request(
    records, store, chat_stub, geocoder_stub, approach, missing, entry
):
    deps = RunDeps(chat=_chat(chat_stub), store=store, geocoder=_geocoder(geocoder_stub))
    deps = dataclasses.replace(deps, **{missing: None})
    config = ExperimentConfig(approach, "m")
    with pytest.raises(ValueError) as excinfo:
        entry(config, records[1] if entry is run_record else records, deps)
    assert excinfo.value.args == (f"{approach.value} requires deps.{missing}",)
    assert chat_stub.core.request_count == geocoder_stub.core.request_count == 0


def test_parallelism_must_be_positive(records, chat_stub):
    deps = RunDeps(chat=_chat(chat_stub))
    with pytest.raises(ValueError):
        run_experiment(ExperimentConfig(Approach.DIRECT, "m"), records, deps, parallelism=0)


# --- direct approach -----------------------------------------------------------


def test_direct_echo_run(records, chat_stub):
    _script_echo(chat_stub, records)
    config = ExperimentConfig(Approach.DIRECT, "m")
    predictions, report = run_experiment(config, records, RunDeps(chat=_chat(chat_stub)))

    assert [p.record_id for p in predictions] == [r.record_id for r in records]
    assert all(p.bbox == r.gold_bbox for p, r in zip(predictions, records))
    assert report.label == "direct/m"
    assert report.coverage_pct == 100.0
    assert report.mean_distance_km == 0.0
    assert report.area_precision == pytest.approx(1.0, rel=1e-12)
    assert report.area_recall == pytest.approx(1.0, rel=1e-12)
    assert report.area_f1 == pytest.approx(1.0, rel=1e-12)


def test_direct_unparseable_answer_is_uncovered(records, chat_stub):
    # nothing scripted: every record gets the default chatter
    config = ExperimentConfig(Approach.DIRECT, "m")
    predictions, report = run_experiment(
        config, records[:3], RunDeps(chat=_chat(chat_stub))
    )
    assert all(not p.covered for p in predictions)
    assert all(p.flags == ("no_parse",) for p in predictions)
    assert report.coverage_pct == 0.0
    assert report.area_f1 is None


def test_direct_few_shot_flag_reaches_the_wire(records, chat_stub):
    _script_echo(chat_stub, records)
    deps = RunDeps(chat=_chat(chat_stub))
    run_experiment(ExperimentConfig(Approach.DIRECT, "m", few_shot=False), records[:1], deps)
    zero_shot_system = chat_stub.core.requests[-1]["system"]
    run_experiment(ExperimentConfig(Approach.DIRECT, "m", few_shot=True), records[:1], deps)
    few_shot_system = chat_stub.core.requests[-1]["system"]
    assert "Here are some examples" not in zero_shot_system
    assert few_shot_system.startswith(zero_shot_system)
    assert "Here are some examples" in few_shot_system


def test_parallel_run_keeps_input_order(records, chat_stub):
    _script_echo(chat_stub, records)
    config = ExperimentConfig(Approach.DIRECT, "m")
    serial, serial_report = run_experiment(
        config, records, RunDeps(chat=_chat(chat_stub))
    )
    parallel, parallel_report = run_experiment(
        config, records, RunDeps(chat=_chat(chat_stub)), parallelism=8
    )
    assert parallel == serial
    assert parallel_report == serial_report


class _FailingChat:
    """Answers every request with no box, and raises on the records listed in ``fail``."""

    def __init__(self, records, fail):
        self._fail = {records[i].description for i in fail}
        self.asked = []

    def complete(self, request):
        description = request.user.removeprefix("Input: ").removesuffix(" \nOutput:")
        self.asked.append(description)
        if description in self._fail:
            raise RuntimeError(f"failed on {description}")
        return "no box"


def test_unexpected_error_stops_claiming_records(records):
    chat = _FailingChat(records, fail=[2])
    with pytest.raises(RuntimeError) as exc:
        run_experiment(ExperimentConfig(Approach.DIRECT, "m"), records, RunDeps(chat=chat))
    assert str(exc.value) == f"failed on {records[2].description}"
    assert chat.asked == [r.description for r in records[:3]]


class _InterruptingChat(_FailingChat):
    """Sends SIGINT to the main thread on the 2nd request, then waits for it to land."""

    def __init__(self, records):
        super().__init__(records, fail=[])
        self.interrupted = threading.Event()
        self.worker = None

    def complete(self, request):
        reply = super().complete(request)
        if len(self.asked) == 2:
            self.worker = threading.current_thread()
            signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
            self.interrupted.wait(5)
        return reply


@pytest.mark.skipif(
    threading.current_thread() is not threading.main_thread(),
    reason="SIGINT is handled in the main thread only",
)
def test_interrupt_stops_claiming_records(records):
    chat = _InterruptingChat(records)

    def on_sigint(signum, frame):
        chat.interrupted.set()
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGINT, on_sigint)
    try:
        with pytest.raises(KeyboardInterrupt):
            run_experiment(ExperimentConfig(Approach.DIRECT, "m"), records, RunDeps(chat=chat))
    finally:
        signal.signal(signal.SIGINT, previous)
    chat.worker.join(5)
    assert chat.asked == [r.description for r in records[:2]]


def test_unexpected_errors_raise_the_earliest_record(records):
    chat = _FailingChat(records, fail=range(len(records)))
    with pytest.raises(RuntimeError) as exc:
        run_experiment(
            ExperimentConfig(Approach.DIRECT, "m"), records, RunDeps(chat=chat), parallelism=4
        )
    assert str(exc.value) == f"failed on {records[0].description}"
    assert len(chat.asked) <= 4


def test_parallel_workers_ground_each_record_once_in_order():
    records = [
        LocationRecord(f"r{i}", f"Place number {i}.", BoundingBox(0.0, 0.0, 1.0, 1.0))
        for i in range(2000)
    ]
    chat = _FailingChat(records, fail=[])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        predictions, _ = run_experiment(
            ExperimentConfig(Approach.DIRECT, "m"), records, RunDeps(chat=chat), parallelism=16
        )
    finally:
        sys.setswitchinterval(interval)
    assert [p.record_id for p in predictions] == [r.record_id for r in records]
    assert sorted(chat.asked) == sorted(r.description for r in records)


def test_empty_record_set_runs(records):
    chat = _FailingChat(records, fail=[])
    predictions, report = run_experiment(
        ExperimentConfig(Approach.DIRECT, "m"), [], RunDeps(chat=chat), parallelism=4
    )
    assert predictions == [] and chat.asked == []
    assert report.n_covered == 0


def test_transport_failure_becomes_uncovered_prediction(records, chat_stub):
    _script_echo(chat_stub, records)
    chat_stub.core.fail_next(2, status=500)
    config = ExperimentConfig(Approach.DIRECT, "m")
    predictions, report = run_experiment(
        config, records[:4], RunDeps(chat=_chat(chat_stub, max_retries=1))
    )
    assert predictions[0].flags == ("transport_error",)
    assert not predictions[0].covered
    assert all(p.covered for p in predictions[1:])
    assert report.n_covered == 3


def test_protocol_failure_becomes_uncovered_prediction(records, chat_stub):
    _script_echo(chat_stub, records)
    chat_stub.core.malform_next()
    predictions, report = run_experiment(
        ExperimentConfig(Approach.DIRECT, "m"),
        records[:2],
        RunDeps(chat=_chat(chat_stub)),
    )
    assert predictions[0].flags == ("protocol_error",)
    assert predictions[1].covered
    assert report.n_covered == 1


def test_empty_completion_becomes_uncovered_prediction(records, chat_stub):
    chat_stub.script(records[0].description, "  \n")  # registered first, so it wins
    _script_echo(chat_stub, records)
    predictions, report = run_experiment(
        ExperimentConfig(Approach.DIRECT, "m"),
        records[:2],
        RunDeps(chat=_chat(chat_stub)),
    )
    assert predictions[0].flags == ("empty_response",)
    assert not predictions[0].covered
    assert predictions[1].covered
    assert report.n_covered == 1


# --- knowledge approaches ---------------------------------------------------------


def test_knowledge_box_uses_name_payload(records, chat_stub):
    chat_stub.script("Gulf of Oman", "(56.268, 22.482, 61.801, 25.946)")
    deps = RunDeps(chat=_chat(chat_stub))
    prediction = run_record(
        ExperimentConfig(Approach.KNOWLEDGE_BOX, "m"), records[0], deps
    )
    assert prediction.covered
    logged = chat_stub.core.requests[-1]
    assert logged["user"] == "Input: Gulf of Oman, in Oman.\nOutput:"


def test_knowledge_payload_drops_missing_country(records, chat_stub):
    by_id = {r.record_id: r for r in records}
    chat_stub.script("Dome Research Station", "(-2.0, -84.0)")
    deps = RunDeps(chat=_chat(chat_stub))
    prediction = run_record(
        ExperimentConfig(Approach.KNOWLEDGE_POINT, "m"), by_id["r03"], deps
    )
    assert prediction.point is not None
    assert chat_stub.core.requests[-1]["user"] == "Input: Dome Research Station.\nOutput:"


def test_knowledge_skips_nameless_records(records, chat_stub):
    named = sum(1 for r in records if r.gold_name is not None)
    for r in records:
        if r.gold_name:
            chat_stub.script(r.gold_name, "(10.000, 20.000)")
    config = ExperimentConfig(Approach.KNOWLEDGE_POINT, "m")
    predictions, report = run_experiment(config, records, RunDeps(chat=_chat(chat_stub)))
    assert named == 10
    assert report.n_total == 20
    assert report.n_covered == 10
    assert report.coverage_pct == 50.0
    assert report.area_precision is None  # point outputs carry no area
    nameless = [p for p in predictions if p.flags == ("no_gold_name",)]
    assert len(nameless) == 10
    assert chat_stub.core.request_count == 10


# --- oracle recall -----------------------------------------------------------------


def test_reasoning_oracle_equals_geoaug_oracle_with_gold_store(records, store, chat_stub):
    _script_echo(chat_stub, records)
    deps = RunDeps(chat=_chat(chat_stub), store=store)
    oracle_preds, oracle_report = run_experiment(
        ExperimentConfig(Approach.REASONING_ORACLE, "m"), records, deps
    )
    geoaug_preds, geoaug_report = run_experiment(
        ExperimentConfig(Approach.GEOAUG_ORACLE, "m"), records, deps
    )
    for a, b in zip(oracle_preds, geoaug_preds):
        assert a.record_id == b.record_id
        assert a.bbox == b.bbox
        assert a.point == b.point
        assert a.raw_text == b.raw_text
        assert a.recalled == b.recalled
        assert a.flags == b.flags
    assert oracle_report.coverage_pct == geoaug_report.coverage_pct
    assert oracle_report.area_f1 == geoaug_report.area_f1


def test_geoaug_prompt_carries_mention_sentences(records, store, chat_stub):
    _script_echo(chat_stub, records)
    deps = RunDeps(chat=_chat(chat_stub), store=store)
    run_record(ExperimentConfig(Approach.GEOAUG_ORACLE, "m"), records[0], deps)
    user = chat_stub.core.requests[-1]["user"]
    assert "Arabian Sea has a longitude of 63.002662154702726" in user
    assert user.index("Arabian Sea has a longitude") < user.index(
        "Strait of Hormuz has a longitude"
    )


# --- remote recall -------------------------------------------------------------------


def _geocoder(stub, **kw):
    kw.setdefault("backoff_s", 0.01)
    kw.setdefault("rate_per_sec", 1000.0)
    return GeocoderClient(stub.base_url, **kw)


def test_geoaug_remote_uses_geocoder(records, chat_stub, geocoder_stub):
    target = records[1]  # Galveston Bay: two mentions
    for mention in target.mentions:
        geocoder_stub.add(
            mention.name, lat=mention.gold.center.lat, lng=mention.gold.center.lon
        )
    _script_echo(chat_stub, records)
    deps = RunDeps(chat=_chat(chat_stub), geocoder=_geocoder(geocoder_stub))
    prediction = run_record(ExperimentConfig(Approach.GEOAUG_REMOTE, "m"), target, deps)
    assert prediction.bbox == target.gold_bbox
    assert [name for name, _ in prediction.recalled] == ["Gulf of Mexico", "Galveston"]
    assert {r["address"] for r in geocoder_stub.core.requests} == {
        "Gulf of Mexico",
        "Galveston",
    }


def test_cached_geocoder_reply_of_the_wrong_shape_flags_protocol_error(
    tmp_path, records, chat_stub, geocoder_stub
):
    target = records[1]
    cache = tmp_path / "geo_cache.jsonl"
    first = _geocoder(geocoder_stub, cache_path=cache)
    assert first.geocode(target.mentions[0].name) is None
    first.close()
    # The cached ZERO_RESULTS reply becomes {"status": "OK", "results": []}.
    cache.write_text(cache.read_text().replace('"ZERO_RESULTS"', '"OK"'))
    _script_echo(chat_stub, records)
    deps = RunDeps(chat=_chat(chat_stub), geocoder=_geocoder(geocoder_stub, cache_path=cache))
    predictions, _ = run_experiment(ExperimentConfig(Approach.GEOAUG_REMOTE, "m"), [target], deps)
    assert predictions[0].flags == ("protocol_error",)
    assert geocoder_stub.core.request_count == 1  # the one that filled the cache
    assert chat_stub.core.request_count == 0


def test_geoaug_remote_miss_is_flagged_not_fatal(records, chat_stub, geocoder_stub):
    target = records[1]
    geocoder_stub.add("Galveston", lat=29.3013, lng=-94.7977)  # Gulf of Mexico unknown
    _script_echo(chat_stub, records)
    deps = RunDeps(chat=_chat(chat_stub), geocoder=_geocoder(geocoder_stub))
    prediction = run_record(ExperimentConfig(Approach.GEOAUG_REMOTE, "m"), target, deps)
    assert prediction.covered
    assert "recall_miss:Gulf of Mexico" in prediction.flags
    assert [name for name, _ in prediction.recalled] == ["Galveston"]
    user = chat_stub.core.requests[-1]["user"]
    assert "Galveston has a longitude of" in user
    assert "Gulf of Mexico has a longitude of" not in user


# --- end-to-end ---------------------------------------------------------------------


def test_end_to_end_two_stage_run(records, chat_stub):
    target = records[1]
    recaller_text = (
        "Gulf of Mexico has a longitude of -90.000 and latitude of 25.000. "
        "Galveston has a longitude of -94.7977 and latitude of 29.3013."
    )
    # geo-augmented call is distinguished by the mention sentences the
    # recaller invented; register its rule first (first match wins)
    chat_stub.script("Galveston has a longitude of", "(-96.163, 28.000, -94.163, 30.000)")
    chat_stub.script(target.description, recaller_text)
    deps = RunDeps(chat=_chat(chat_stub))
    config = ExperimentConfig(Approach.END_TO_END, "reasoner-m", recaller_model="recaller-m")
    prediction = run_record(config, target, deps)

    assert prediction.bbox is not None
    assert prediction.bbox.as_tuple() == (-96.163, 28.0, -94.163, 30.0)
    assert [name for name, _ in prediction.recalled] == ["Gulf of Mexico", "Galveston"]
    first, second = chat_stub.core.requests[-2:]
    assert first["model"] == "recaller-m"
    assert "has a longitude of" not in first["user"]
    assert second["model"] == "reasoner-m"
    assert "Galveston has a longitude of -94.7977 and latitude of 29.3013." in second["user"]


def test_end_to_end_invalid_mentions_degrade(records, chat_stub):
    target = records[2]  # Antarctica record
    chat_stub.script(target.description, RECALLER_OUT_OF_RANGE)
    deps = RunDeps(chat=_chat(chat_stub))
    prediction = run_record(ExperimentConfig(Approach.END_TO_END, "m"), target, deps)
    assert not prediction.covered
    assert prediction.recalled == ()
    assert "invalid_mention:South America" in prediction.flags
    assert "degraded" in prediction.flags
    assert "no_parse" in prediction.flags
    # the degraded geo-augmented prompt was still sent: two chat calls
    assert chat_stub.core.request_count == 2


def test_end_to_end_default_recaller_model_is_reasoner_model(records, chat_stub):
    target = records[2]
    chat_stub.script(target.description, "nothing to recall")
    deps = RunDeps(chat=_chat(chat_stub))
    run_record(ExperimentConfig(Approach.END_TO_END, "only-m"), target, deps)
    models = [r["model"] for r in chat_stub.core.requests]
    assert models == ["only-m", "only-m"]


# --- hostile replies -------------------------------------------------------------

_FLAGS = {"no_parse", "invalid_order", "invalid_range", "no_gold_name", "degraded"}
_FLAG_PREFIXES = ("recall_miss:", "invalid_mention:")


class _ReplyChat:
    """Answers each chat call with the next of the given replies."""

    def __init__(self, replies):
        self._replies = iter(replies)

    def complete(self, request):
        return next(self._replies)


class _FixedGeocoder:
    def __init__(self, info):
        self._info = info

    def geocode(self, name):
        return self._info


_GULF = make_fixture_records()[0]
_RECORDS = [
    _GULF,
    dataclasses.replace(_GULF, record_id="nameless", gold_name=None, gold_country=None),
    dataclasses.replace(
        _GULF, record_id="ungilded", mentions=tuple(Mention(m.name) for m in _GULF.mentions)
    ),
]
_OMAN = GeoInfo(name="Oman", center=GeoPoint(lat=21.0, lon=57.0))

# Whole tuples too, usable or not, so that many replies parse.
_TUPLES = ("(46.5, 6.6)", "(95.0, 6.6)", "(6.1, 46.2, 6.9, 46.5)", "(6.9, 46.5, 6.1, 46.2)")
_reply = (
    st.lists(st.sampled_from(REPLY_TOKENS + _TUPLES), max_size=30).map("".join)
    | st.text()
    | st.sampled_from(_TUPLES)
)


@pytest.mark.parametrize("approach", list(Approach), ids=lambda a: a.value)
@given(
    st.sampled_from(_RECORDS),
    st.lists(_reply, min_size=2, max_size=2),
    st.sampled_from([GazetteerStore(), make_fixture_gazetteer()]),
    st.sampled_from([None, _OMAN]),
)
@example(_GULF, [_TUPLES[0]] * 2, GazetteerStore(), _OMAN)
@example(_GULF, [_TUPLES[2]] * 2, GazetteerStore(), _OMAN)
def test_any_reply_gives_a_prediction_with_known_flags(approach, record, replies, store, info):
    deps = RunDeps(chat=_ReplyChat(replies), store=store, geocoder=_FixedGeocoder(info))
    prediction = run_record(ExperimentConfig(approach, "m"), record, deps)
    for flag in prediction.flags:
        assert flag in _FLAGS or flag.startswith(_FLAG_PREFIXES), flag
    if approach is Approach.KNOWLEDGE_POINT:
        assert prediction.bbox is None
    else:
        assert prediction.point is None
