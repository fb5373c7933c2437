"""Experiment pipeline: recall geography, reason to a box, score it.

Every approach is the same two-stage shape with different stages filled
in. The recaller maps mentioned names to geography (gold annotations, a
gazetteer table, a remote geocoder, or a first LLM call); the reasoner
is an LLM that turns the description plus recalled geography into one
bounding box (or, for knowledge baselines, maps a bare name straight to
geometry).
"""

from __future__ import annotations

import enum
import itertools
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from .dataset import LocationRecord, golds_by_id
from .gazetteer import GazetteerStore, GeocoderClient
from .geo import GeoInfo
from .metrics import MetricsReport, Prediction, aggregate
from .netutil import EmptyResponseError, ProtocolError, TransportError
from .prompts import NAME_INPUT_KINDS, PromptKind
from .reasoner import ChatClient, build_prompt, extract_prediction

logger = logging.getLogger(__name__)


class Approach(enum.Enum):
    """The seven ways to ground a record.

    Knowledge baselines skip the description and ask about the gold name
    directly; the rest read the description, differing only in where the
    recalled mention geography comes from (none, gold annotations, a
    gazetteer store, a remote geocoder, or a second LLM).
    """

    KNOWLEDGE_POINT = "knowledge-point"
    KNOWLEDGE_BOX = "knowledge-box"
    REASONING_ORACLE = "reasoning-oracle"
    DIRECT = "direct"
    GEOAUG_ORACLE = "geoaug-oracle"
    GEOAUG_REMOTE = "geoaug-remote"
    END_TO_END = "end-to-end"

    @property
    def required_deps(self) -> tuple[str, ...]:
        """Names of RunDeps fields this approach cannot run without."""
        if self is Approach.GEOAUG_ORACLE:
            return ("chat", "store")
        if self is Approach.GEOAUG_REMOTE:
            return ("chat", "geocoder")
        return ("chat",)


@dataclass(frozen=True)
class ExperimentConfig:
    """What to run: approach, reasoner model, optional separate recaller model."""

    approach: Approach
    model: str
    recaller_model: str | None = None
    few_shot: bool = True

    @property
    def label(self) -> str:
        return f"{self.approach.value}/{self.model}"


@dataclass
class RunDeps:
    """External services a run may touch. Only ``chat`` is universal."""

    chat: ChatClient
    store: GazetteerStore | None = None
    geocoder: GeocoderClient | None = None


def _failure_flag(exc: Exception) -> str:
    if isinstance(exc, EmptyResponseError):
        return "empty_response"
    if isinstance(exc, TransportError):
        return "transport_error"
    return "protocol_error"


# One (name, GeoInfo or None) pair per candidate mention; None marks a lost one.
_Candidates = list[tuple[str, GeoInfo | None]]


def _gold(config: ExperimentConfig, record: LocationRecord, deps: RunDeps) -> _Candidates:
    return [(m.name, m.gold) for m in record.mentions]


def _gazetteer(config: ExperimentConfig, record: LocationRecord, deps: RunDeps) -> _Candidates:
    store = deps.store
    return [(m.name, (store.lookup(m.name) if store else None) or m.gold) for m in record.mentions]


def _geocoder(config: ExperimentConfig, record: LocationRecord, deps: RunDeps) -> _Candidates:
    return [(m.name, deps.geocoder.geocode(m.name)) for m in record.mentions]


def _llm_recaller(config: ExperimentConfig, record: LocationRecord, deps: RunDeps) -> _Candidates:
    request = build_prompt(
        PromptKind.MENTION_RECALLER,
        model=config.recaller_model or config.model,
        description=record.description,
        few_shot=config.few_shot,
    )
    text = deps.chat.complete(request)
    return [
        (m.name, GeoInfo(name=m.name, center=m.center) if m.valid else None)
        for m in extract_prediction(PromptKind.MENTION_RECALLER, text).mentions
    ]


class _Pipeline(NamedTuple):
    """How one approach grounds a record.

    ``recall``, when set, is the recall stage; each mention it loses is
    flagged as ``miss_flag + name`` unless ``miss_flag`` is None.
    """

    prompt: PromptKind
    recall: Callable[[ExperimentConfig, LocationRecord, RunDeps], _Candidates] | None = None
    miss_flag: str | None = None


# Rows hold only this module's stage functions. They reach build_prompt,
# extract_prediction and the clients through names looked up at call
# time, so a tracer that rebinds those module names sees every call.
_PIPELINES: dict[Approach, _Pipeline] = {
    Approach.KNOWLEDGE_POINT: _Pipeline(PromptKind.KNOWLEDGE_POINT),
    Approach.KNOWLEDGE_BOX: _Pipeline(PromptKind.KNOWLEDGE_BOX),
    Approach.DIRECT: _Pipeline(PromptKind.DIRECT_BOX),
    Approach.REASONING_ORACLE: _Pipeline(PromptKind.GEO_AUGMENTED_BOX, _gold),
    Approach.GEOAUG_ORACLE: _Pipeline(PromptKind.GEO_AUGMENTED_BOX, _gazetteer, "recall_miss:"),
    Approach.GEOAUG_REMOTE: _Pipeline(PromptKind.GEO_AUGMENTED_BOX, _geocoder, "recall_miss:"),
    Approach.END_TO_END: _Pipeline(
        PromptKind.GEO_AUGMENTED_BOX, _llm_recaller, "invalid_mention:"
    ),
}


def run_record(config: ExperimentConfig, record: LocationRecord, deps: RunDeps) -> Prediction:
    """Ground one record with one approach.

    Recall losses never abort the record: a geo-augmented prompt with
    zero recalled mentions is still sent (flagged "degraded") rather
    than silently substituting a different approach, and unparseable
    reasoner output comes back as an uncovered prediction with parse
    flags. Transport and protocol failures do raise; run_experiment
    converts those to uncovered predictions.
    """
    pipeline = _PIPELINES[config.approach]
    tag = config.approach.value
    if pipeline.prompt in NAME_INPUT_KINDS and record.gold_name is None:
        return Prediction(
            record_id=record.record_id, approach=tag, model=config.model,
            flags=("no_gold_name",),
        )

    recalled: list[tuple[str, GeoInfo]] = []
    flags: list[str] = []
    if pipeline.recall is not None:
        for name, info in pipeline.recall(config, record, deps):
            if info is not None:
                recalled.append((name, info))
            elif pipeline.miss_flag is not None:
                flags.append(pipeline.miss_flag + name)
        if not recalled:
            flags.append("degraded")

    request = build_prompt(
        pipeline.prompt,
        model=config.model,
        description=record.description,
        location_name=record.gold_name,
        country=record.gold_country,
        recalled=recalled,
        few_shot=config.few_shot,
    )
    text = deps.chat.complete(request)
    extraction = extract_prediction(pipeline.prompt, text)
    return Prediction(
        record_id=record.record_id, approach=tag, model=config.model,
        bbox=extraction.bbox, point=extraction.point, raw_text=text,
        recalled=tuple(recalled), flags=tuple(flags) + extraction.flags,
    )


def run_experiment(
    config: ExperimentConfig,
    records: Sequence[LocationRecord],
    deps: RunDeps,
    parallelism: int = 1,
) -> tuple[list[Prediction], MetricsReport]:
    """Run one approach over a record set and score it.

    Records are processed with bounded parallelism; the output order
    matches the input order regardless of degree. A record whose
    processing raises a transport/protocol error becomes an uncovered
    prediction with the failure flagged — one dead record must not kill
    a thousand-record run. Any other exception stops the run: no record
    is started after it, and the exception of the earliest failed record
    is raised once the records in flight finish. So is a
    ``KeyboardInterrupt`` received while the workers run.

    Raises:
        ValueError: missing dependencies for the approach, or
            parallelism < 1.
    """
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    for dep_name in config.approach.required_deps:
        if getattr(deps, dep_name) is None:
            raise ValueError(f"{config.approach.value} requires deps.{dep_name}")

    def grounded(record: LocationRecord) -> Prediction:
        try:
            return run_record(config, record, deps)
        except (TransportError, ProtocolError) as exc:
            logger.warning("record %s failed: %s", record.record_id, exc)
            return Prediction(
                record_id=record.record_id,
                approach=config.approach.value,
                model=config.model,
                flags=(_failure_flag(exc),),
            )

    # Each worker claims the next index until none is left, so no Future
    # is made per record; ``next`` on a shared count is atomic under the
    # GIL. A worker that raises stops every worker from claiming more.
    predictions: list = [None] * len(records)
    claims = itertools.count()
    errors: dict[int, BaseException] = {}

    def work() -> None:
        while not errors and (i := next(claims)) < len(records):
            try:
                predictions[i] = grounded(records[i])
            except BaseException as exc:
                errors[i] = exc
                return

    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        try:
            for _ in range(min(parallelism, len(records))):
                pool.submit(work)
            pool.shutdown(wait=True)
        except BaseException as exc:
            # Ctrl-C lands in this thread, mostly while it waits for the
            # workers; stop them claiming records too. Leaving the block
            # still waits for the records in flight.
            errors.setdefault(len(records), exc)
            raise
    if errors:
        raise errors[min(errors)]

    report = aggregate(predictions, golds_by_id(records), label=config.label)
    return predictions, report
