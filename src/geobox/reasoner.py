"""Chat-based reasoning over location descriptions.

This module owns the LLM protocol end to end: building chat requests
from records and recalled geography (tuning exports included), talking
to a chat-completions endpoint (cached, retried), and digging structured
geometry back out of free-form responses.
"""

from __future__ import annotations

import functools
import json
import os
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .dataset import LocationRecord
from .geo import BoundingBox, GeoInfo, GeoPoint, format_bbox, format_coord
from .jsonio import atomic_write_jsonl
from .netutil import EmptyResponseError, ProtocolError, ServiceClient, request_json
from .parsing import _NUM, parse_bbox, parse_point
from .prompts import NAME_INPUT_KINDS, PromptKind, system_text

# Decoding settings are part of the protocol: deterministic, bounded output.
TEMPERATURE = 0.0
MAX_TOKENS = 1024


@dataclass(frozen=True)
class ChatRequest:
    """One fully rendered chat call: stable bytes in, cacheable text out."""

    model: str
    system: str
    user: str


@dataclass(frozen=True)
class RecalledMention:
    """One location the recaller emitted, values kept raw.

    ``lon``/``lat`` are stored unvalidated because recallers do emit
    impossible coordinates and those must survive for error analysis;
    ``valid`` says whether they are in range, and ``center`` is only
    constructible when they are.
    """

    name: str
    lon: float
    lat: float

    @property
    def valid(self) -> bool:
        return -180.0 <= self.lon <= 180.0 and -90.0 <= self.lat <= 90.0

    @property
    def center(self) -> GeoPoint:
        if not self.valid:
            raise ValueError(f"mention {self.name!r} has out-of-range coordinates")
        return GeoPoint(lat=self.lat, lon=self.lon)


def mention_sentence(name: str, lon: float, lat: float) -> str:
    """Render one recalled mention as prompt text.

    The sentence pattern is fixed protocol; coordinates are printed at
    full precision (canonical rendering, minimum three decimals).
    """
    return (
        f"{name} has a longitude of {format_coord(lon)} "
        f"and latitude of {format_coord(lat)}."
    )


_JSON = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"))


def cache_key(model: str, system: str, user: str) -> str:
    """Stable cache key for a chat call: SHA-256 over the identifying triple.

    The hashed blob is the compact JSON array ``[model,system,user]``; the
    hash of its ``[model,system,`` prefix is computed once per pair.
    """
    digest = _prefix_digest(model, system).copy()
    digest.update(f"{_JSON.encode(user)}]".encode("utf-8"))
    return digest.hexdigest()


@functools.lru_cache(maxsize=32)
def _prefix_digest(model: str, system: str):
    import hashlib  # on first use: it maps OpenSSL, which commands that hash nothing skip

    return hashlib.sha256(f"[{_JSON.encode(model)},{_JSON.encode(system)},".encode("utf-8"))


def build_prompt(
    kind: PromptKind,
    *,
    model: str,
    description: str | None = None,
    location_name: str | None = None,
    country: str | None = None,
    recalled: Sequence[tuple[str, GeoInfo]] = (),
    few_shot: bool = True,
) -> ChatRequest:
    """Render a chat request for one record.

    The user message is always ``Input: <payload>\\nOutput:``. Knowledge
    kinds take a name payload (``<name>, in <country>.``, or ``<name>.``
    without a country). Description kinds append a space after the
    description — followed by one recalled-mention sentence per entry
    for the geo-augmented kind, in order of first appearance of the name
    in the description (names not found keep their given order, after
    the found ones). A geo-augmented prompt with no mentions carries the
    description alone; the pipeline flags such a record "degraded".

    Raises:
        ValueError: missing description/name for the kind, or recalled
            mentions passed to a kind that cannot carry them.
    """
    if recalled and kind is not PromptKind.GEO_AUGMENTED_BOX:
        raise ValueError(f"{kind.value} prompts cannot carry recalled mentions")

    if kind in NAME_INPUT_KINDS:
        if location_name is None:
            raise ValueError(f"{kind.value} requires location_name")
        payload = f"{location_name}, in {country}." if country else f"{location_name}."
        user = f"Input: {payload}\nOutput:"
        return ChatRequest(model=model, system=system_text(kind, few_shot), user=user)

    if description is None:
        raise ValueError(f"{kind.value} requires description")

    if kind is PromptKind.GEO_AUGMENTED_BOX:
        ordered = _order_by_appearance(description, recalled)
        sentences = " ".join(
            mention_sentence(name, info.center.lon, info.center.lat) for name, info in ordered
        )
        user = f"Input: {description} {sentences}\nOutput:"
    else:
        # Direct and recaller templates keep the separator space after
        # the description; it is part of the frozen template bytes.
        user = f"Input: {description} \nOutput:"
    return ChatRequest(model=model, system=system_text(kind, few_shot), user=user)


def _order_by_appearance(
    description: str, recalled: Sequence[tuple[str, GeoInfo]]
) -> list[tuple[str, GeoInfo]]:
    def sort_key(item: tuple[int, tuple[str, GeoInfo]]) -> tuple[int, int]:
        index, (name, _) = item
        pos = description.find(name)
        return (pos if pos >= 0 else len(description) + 1, index)

    return [pair for _, pair in sorted(enumerate(recalled), key=sort_key)]


# --- supervised tuning export --------------------------------------------


@dataclass
class ExportStats:
    written: int = 0
    skipped: int = 0


def export_finetune_jsonl(
    records: Iterable[LocationRecord],
    approach: str,
    out_path: str | os.PathLike,
) -> ExportStats:
    """Write {system, user, assistant} tuning rows for a box approach.

    Prompts are rendered without few-shot exemplars (the tuned model
    replaces them); the assistant turn is the canonical rendering of the
    gold box. Geo-augmented export skips records with no gold-annotated
    mentions — a degraded prompt is not a training example — and counts
    them.

    Args:
        approach: "direct" or "geoaug-oracle".

    Raises:
        ValueError: unsupported approach.
    """
    if approach == "direct":
        kind = PromptKind.DIRECT_BOX
    elif approach == "geoaug-oracle":
        kind = PromptKind.GEO_AUGMENTED_BOX
    else:
        raise ValueError(f"unsupported tuning export approach {approach!r}")

    stats = ExportStats()

    def rows() -> Iterator[dict]:
        for record in records:
            recalled = []
            if kind is PromptKind.GEO_AUGMENTED_BOX:
                recalled = [(m.name, m.gold) for m in record.mentions if m.gold is not None]
                if not recalled:
                    stats.skipped += 1
                    continue
            request = build_prompt(
                kind, model="", description=record.description, recalled=recalled, few_shot=False
            )
            yield {
                "system": request.system,
                "user": request.user,
                "assistant": format_bbox(record.gold_bbox),
            }
            stats.written += 1

    atomic_write_jsonl(out_path, rows())
    return stats


# --- response extraction -------------------------------------------------

# "<Name> has a longitude of <lon> and latitude of <lat>" with the name
# reaching back to the previous sentence/clause boundary. Names holding
# internal punctuation (e.g. "St. Petersburg") split at the dot; that is
# the cost of boundary detection over unstructured output. The reference
# regex, ``MENTION_RE`` in ``tests/test_reasoner.py``, is split here at its
# literal: the name group's stop characters before it, the numbers after.
_LITERAL = "has a longitude of"
_BOUNDARIES = ".!?:;\n"
_TAIL_RE = re.compile(rf"\s+({_NUM})\s+and latitude of\s+({_NUM})")


def extract_mentions(text: str) -> list[RecalledMention]:
    """Pull recalled-mention sentences out of recaller output.

    Out-of-range coordinates are kept (``valid=False``); cleaning is
    limited to trimming whitespace and markdown emphasis around names.
    Finds what ``MENTION_RE.finditer`` (``tests/test_reasoner.py``)
    finds, in time linear in the text's length: each literal is found
    once, the numbers after it are matched forwards, and only then is the
    name read backwards.
    """
    mentions = []
    pos = scan = 0
    while (lit := text.find(_LITERAL, scan)) >= 0:
        scan = lit + 1
        # Numbers first: a failed tail stops at the next literal, while a
        # name can reach back to ``pos``, which is only read again once a
        # match moves ``pos`` past it.
        tail = _TAIL_RE.match(text, lit + len(_LITERAL))
        if tail is None:
            continue
        span = _name_span(text, pos, lit)
        if span is None:
            continue
        pos = scan = tail.end()
        name = text[span[0] : span[1]].strip().strip("*`_").strip()
        if name:
            mentions.append(
                RecalledMention(name=name, lon=float(tail.group(1)), lat=float(tail.group(2)))
            )
    return mentions


def _name_span(text: str, pos: int, lit: int) -> tuple[int, int] | None:
    """Where ``MENTION_RE``'s name lies in a match from ``pos`` with its literal at ``lit``.

    The name ends where the whitespace before ``lit`` starts, and reaches
    back to the last boundary character or to ``pos``, whichever is
    later; with a boundary right before that whitespace, it can only be
    one character of it. None when there is no name. Of the literals with
    numbers after them, the first one with a name gives the leftmost
    match from ``pos``, since no later literal's name starts earlier.
    """
    end = lit
    while end > pos and text[end - 1].isspace():
        end -= 1
    if end == lit:
        return None
    if end > pos and text[end - 1] not in _BOUNDARIES:
        return max(pos, *[text.rfind(c, pos, end) + 1 for c in _BOUNDARIES]), end
    # Only one whitespace character of the run itself can be the name,
    # and it needs at least one more after it; a newline is a boundary.
    start = end
    while start < lit - 1 and text[start] == "\n":
        start += 1
    return (start, start + 1) if start < lit - 1 else None


@dataclass(frozen=True)
class Extraction:
    """Structured content recovered from one model response."""

    bbox: BoundingBox | None = None
    point: GeoPoint | None = None
    mentions: tuple[RecalledMention, ...] = ()
    flags: tuple[str, ...] = ()


def extract_prediction(kind: PromptKind, text: str) -> Extraction:
    """Interpret a model response according to the prompt kind.

    Point kinds parse a ``(lat, lon)`` tuple, box kinds a 4-tuple, the
    recaller kind mention sentences. Parse failures come back as flags
    ("no_parse", "invalid_order", "invalid_range"), never exceptions.
    """
    if kind is PromptKind.MENTION_RECALLER:
        return Extraction(mentions=tuple(extract_mentions(text)))
    if kind is PromptKind.KNOWLEDGE_POINT:
        point, flags = parse_point(text)
        return Extraction(point=point, flags=flags)
    bbox, flags = parse_bbox(text)
    return Extraction(bbox=bbox, flags=flags)


class ChatClient(ServiceClient):
    """Client for a chat-completions HTTP endpoint.

    POSTs ``{model, messages, temperature, max_tokens}`` to
    ``<base>/chat/completions``, before any query of ``<base>``, and reads
    ``choices[0].message.content``. Completions are cached by
    (model, system, user) hash in an append-only JSONL file, written
    before the content is returned, so an interrupted run never repays
    for answers it already received; a cached value is checked as a
    fresh one is, so one that is not a non-empty string raises
    ``EmptyResponseError`` without a request. A CR, LF or NUL in the
    bearer token (``api_key``, else ``LLM_API_KEY``) raises
    ``ValueError`` here. Unpaced unless ``rate_per_sec`` is given; other
    ``options`` are those of ``ServiceClient``.
    """

    TIMEOUT_S = 120.0

    def __init__(self, base_url: str | None = None, api_key: str | None = None, **options) -> None:
        base = base_url if base_url is not None else os.environ.get("LLM_API_BASE")
        if not base:
            raise ValueError("no chat endpoint: pass base_url or set LLM_API_BASE")
        key = api_key if api_key is not None else os.environ.get("LLM_API_KEY")
        headers = {"Authorization": f"Bearer {key}"} if key else {}
        # The path ends at the first "?" or "#"; the query and fragment stay last.
        head = re.match(r"[^?#]*", base).group()
        url = head.rstrip("/") + "/chat/completions" + base[len(head):]
        super().__init__(url, "chat endpoint", headers=headers, **options)

    def complete(self, request: ChatRequest) -> str:
        """Run one chat call, returning the completion text.

        Raises:
            TransportError: endpoint unreachable/failing after retries.
            ProtocolError: response body not in the expected shape.
            EmptyResponseError: the model returned no content, or the
                cached value is not a non-empty string.
        """
        def send():
            body = {
                "model": request.model,
                "messages": [
                    {"role": "system", "content": request.system},
                    {"role": "user", "content": request.user},
                ],
                "temperature": TEMPERATURE,
                "max_tokens": MAX_TOKENS,
            }
            reply, retries = request_json(self, "POST", json_body=body)
            try:
                return reply["choices"][0]["message"]["content"], retries
            except (TypeError, KeyError, IndexError) as exc:
                raise ProtocolError(f"malformed completion response: {str(reply)[:200]}") from exc

        key = cache_key(request.model, request.system, request.user)
        return self._fetch(key, send, _completion_text)


def _completion_text(content) -> str:
    """The completion text, cached or fresh, unless it is not a non-empty string."""
    if not isinstance(content, str) or not content.strip():
        raise EmptyResponseError("completion arrived with no content")
    return content
