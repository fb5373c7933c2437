"""Recallers that map a location name to geographic information.

Two implementations of the same job:

* ``GazetteerStore`` — an in-memory table loaded from JSONL, for oracle
  and offline setups. Lookup is by normalized name; no I/O after load.
* ``GeocoderClient`` — a remote geocoding service speaking the common
  ``status``/``results``/``geometry`` response shape, with caching, rate
  limiting, and retries.

Both return ``GeoInfo`` (center always, bbox when the source has one).
"""

from __future__ import annotations

import collections
import json
import logging
import os
from typing import Iterable, Iterator

from .geo import BoundingBox, GeoInfo, GeoPoint, geoinfo_from_obj, geoinfo_to_obj
from .netutil import ProtocolError, ServiceClient, atomic_write_jsonl, read_jsonl, request_json

logger = logging.getLogger(__name__)


def normalize_name(name: str) -> str:
    """Normalize a location name for keying: trim, collapse whitespace, casefold."""
    return " ".join(name.split()).casefold()


class GazetteerStore:
    """In-memory name -> GeoInfo table with normalized-name lookup.

    Duplicate names are all kept, in insertion order; lookup returns the
    first one inserted.
    """

    def __init__(self, infos: Iterable[GeoInfo] = ()) -> None:
        self._by_name: dict[str, list[GeoInfo]] = collections.defaultdict(list)
        self._count = 0
        for info in infos:
            self.add(info)

    def add(self, info: GeoInfo) -> None:
        self._by_name[normalize_name(info.name)].append(info)
        self._count += 1

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[GeoInfo]:
        for entries in self._by_name.values():
            yield from entries

    def lookup(self, name: str) -> GeoInfo | None:
        """The first entry added under ``name`` (case and spacing ignored), or None."""
        entries = self._by_name.get(normalize_name(name))
        return entries[0] if entries else None

    @classmethod
    def load(cls, path: str | os.PathLike) -> "GazetteerStore":
        """Load a store from JSONL, one entry per line.

        Lines that fail to parse or validate are skipped with a warning;
        a gazetteer with a few bad rows is still a usable gazetteer.
        """
        skipped = []

        def skip(line_no: int, exc: Exception) -> None:
            skipped.append(line_no)
            logger.warning("gazetteer %s line %d skipped: %s", path, line_no, exc)

        store = cls(read_jsonl(path, geoinfo_from_obj, skip))
        if skipped:
            logger.warning("gazetteer %s: %d line(s) skipped", path, len(skipped))
        return store

    def save(self, path: str | os.PathLike) -> None:
        """Write the store as JSONL, atomically: the whole table or the old file."""
        atomic_write_jsonl(path, (geoinfo_to_obj(info) for info in self))


class GeocoderClient(ServiceClient):
    """Client for a geocoding HTTP service.

    The service contract: GET with an ``address`` query parameter (plus
    ``key`` when an API key is configured), answering JSON with a
    ``status`` of ``"OK"`` or ``"ZERO_RESULTS"`` and a ``results`` array
    whose first element carries ``geometry.location`` (center) and
    optionally ``geometry.viewport`` (southwest/northeast corners).

    Raw replies are cached by (endpoint, normalized query) in an
    append-only JSONL file, so reruns are free and offline; a cached
    reply is parsed as a fresh one is, so one of the wrong shape raises
    ``ProtocolError`` without a request. Requests are
    paced at ``RATE_PER_SEC`` unless ``rate_per_sec`` says otherwise, and
    retried on 429/5xx with exponential backoff; ``options`` are those of
    ``ServiceClient``. ``stats`` counts requests, retries, and cache hits.
    """

    RATE_PER_SEC = 10.0

    def __init__(self, endpoint: str, api_key: str | None = None, **options) -> None:
        options.setdefault("rate_per_sec", self.RATE_PER_SEC)
        self._api_key = api_key if api_key is not None else os.environ.get("GEOCODER_API_KEY")
        super().__init__(endpoint, "geocoder endpoint", **options)

    def geocode(self, name: str) -> GeoInfo | None:
        """Resolve a location name to GeoInfo, or None when unknown.

        A cache hit short-circuits the network entirely; negative
        results (ZERO_RESULTS) are cached too.

        Raises:
            TransportError: endpoint unreachable or failing after retries.
            ProtocolError: response is not the shape described above.
        """
        def send():
            params = {"address": name}
            if self._api_key:
                params["key"] = self._api_key
            return request_json(self, "GET", params=params)

        key = json.dumps([self._url, normalize_name(name)], separators=(",", ":"))
        return self._fetch(key, send, lambda data: self._parse_response(name, data))

    def _parse_response(self, query: str, data) -> GeoInfo | None:
        try:
            status = data["status"]
        except (TypeError, KeyError):
            raise ProtocolError(f"geocoder response missing status: {str(data)[:200]}")
        if status == "ZERO_RESULTS":
            return None
        if status != "OK":
            raise ProtocolError(f"geocoder status {status!r} for {query!r}")
        try:
            first = data["results"][0]
            loc = first["geometry"]["location"]
            center = GeoPoint(lat=float(loc["lat"]), lon=float(loc["lng"]))
            bbox = None
            viewport = first.get("geometry", {}).get("viewport")
            if viewport:
                sw, ne = viewport["southwest"], viewport["northeast"]
                try:
                    bbox = BoundingBox(
                        lon_min=float(sw["lng"]),
                        lat_min=float(sw["lat"]),
                        lon_max=float(ne["lng"]),
                        lat_max=float(ne["lat"]),
                    )
                except (ValueError, OverflowError):
                    # e.g. a viewport wrapping the antimeridian; keep center.
                    logger.warning("unusable viewport for %r, keeping center only", query)
                    bbox = None
            return GeoInfo(
                name=str(first.get("formatted_address") or query),
                center=center,
                bbox=bbox,
                source_id=str(first["place_id"]) if first.get("place_id") else None,
            )
        except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
            raise ProtocolError(f"malformed geocoder result for {query!r}: {exc}") from exc
