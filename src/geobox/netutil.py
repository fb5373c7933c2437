"""Shared plumbing for the HTTP clients: errors, transport, caching, rate limiting.

Both remote services (geocoder, chat completions) subclass ``ServiceClient``:
a pool of keep-alive connections, a persistent append-only JSONL cache
keyed by request identity, a token rate limiter, and bounded retries with
exponential backoff on transient failures. Kept service-agnostic so the
two clients stay thin. The transport speaks HTTP/1.1 on ``socket``
itself, imported on the first request, and imports ``ssl`` only for an
``https`` URL, so commands that send no request load neither. The JSONL
line reading and writing shared by every loader and writer in the
package live here too.
"""

from __future__ import annotations

import collections
import contextlib
import gc
import json
import logging
import math
import os
import re
import threading
import time
import urllib.parse
from typing import IO, TYPE_CHECKING, Any, Callable, Iterable, Iterator

if TYPE_CHECKING:
    import socket
    import ssl

logger = logging.getLogger(__name__)

# HTTP statuses worth retrying: throttling and server-side failures.
RETRYABLE_STATUSES = frozenset({429, 500, 502, 503, 504})


class TransportError(RuntimeError):
    """The service could not be reached, or kept failing past all retries."""


class ProtocolError(RuntimeError):
    """The service answered, but not in the shape the client understands."""


class EmptyResponseError(ProtocolError):
    """A completion arrived with no usable content."""


class RateLimiter:
    """Serializes callers to at most ``rate_per_sec`` acquisitions per second.

    Thread-safe. The first acquisition is immediate; thereafter
    acquisitions are spaced ``1/rate_per_sec`` apart, so N calls take at
    least (N-1)/rate seconds of wall clock.
    """

    def __init__(self, rate_per_sec: float) -> None:
        if rate_per_sec <= 0:
            raise ValueError("rate_per_sec must be positive")
        self._interval = 1.0 / rate_per_sec
        self._lock = threading.Lock()
        self._next_at = 0.0

    def acquire(self) -> None:
        while True:
            with self._lock:
                now = time.monotonic()
                if now >= self._next_at:
                    self._next_at = max(now, self._next_at) + self._interval
                    return
                wait = self._next_at - now
            time.sleep(wait)


# --- JSONL reading and writing ---------------------------------------------

_raw_decode = json.JSONDecoder().raw_decode
# ``json.dumps(x, ensure_ascii=False)`` builds this same encoder on every call.
_encode_line = json.JSONEncoder(ensure_ascii=False).encode


@contextlib.contextmanager
def gc_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector; restore its previous state on exit.

    Decoded JSON rows and the values built from them hold no reference
    cycles, so nothing waits on the collector while it is off; what is
    saved is its repeated passes over a heap that grows with every line.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


# A bad row of JSON input to every reader: bad UTF-8/JSON, wrong shape, float overflow.
BAD_ROW = (ValueError, KeyError, TypeError, OverflowError)


# `"\\" in line` is answered by memchr for most lines; this pattern then finds
# "\\u" faster than `in` does.
_U_ESCAPE = re.compile(r"\\u")


def decode_json_line(line: str) -> Any:
    """``json.loads(line)``, with the same value and the same errors, but cheaper.

    ``raw_decode`` skips ``json.loads``'s per-call checks. Anything it
    cannot take whole (an error, trailing characters, a BOM, leading
    whitespace) goes through ``json.loads``, so errors keep its messages.
    Two errors differ: nesting too deep for the decoder is a
    ``ValueError`` here, where ``json.loads`` raises ``RecursionError``;
    and a value holding a lone surrogate raises ``UnicodeEncodeError``, a
    ``ValueError``, since UTF-8 cannot encode it, so it could be neither
    cached nor written. Only a line holding ``\\u`` is checked: text
    decoded strictly from UTF-8, as every reader here does, can hold a
    lone surrogate no other way.
    """
    try:
        try:
            value, end = _raw_decode(line)
        except ValueError:
            end = -1
        if end != len(line):
            value = json.loads(line)
    except RecursionError as exc:
        raise ValueError(f"JSON nested too deep: {exc}") from None
    if "\\" in line and _U_ESCAPE.search(line):
        _refuse_lone_surrogates(value)
    return value


def _refuse_lone_surrogates(value: Any) -> None:
    """Raise ``UnicodeEncodeError`` if ``value`` holds a lone surrogate."""
    _encode_line(value).encode("utf-8")


def read_jsonl(path: str | os.PathLike, build: Callable, bad: Callable) -> list:
    """``build(value)`` for each non-blank line of a UTF-8 JSONL file, in order, GC paused.

    A line (numbered from 1) whose ``decode_json_line`` or ``build``
    raises a ``BAD_ROW`` goes to ``bad(line number, error)`` instead; it
    may raise.
    """
    rows: list = []
    with open(path, "r", encoding="utf-8") as fh, gc_paused():
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                try:
                    rows.append(build(decode_json_line(line)))
                except BAD_ROW as exc:
                    bad(line_no, exc)
    return rows


class JsonlCache:
    """Append-only key/value cache persisted as JSONL.

    One ``{"key": ..., "value": ...}`` object per line. Loading skips
    corrupt lines, and lines holding a lone surrogate, with a warning
    instead of failing: a torn final line from a killed process must not
    poison the rest of the cache. With ``path=None`` the cache is
    memory-only.

    Writes go to disk before the value is returned to the caller, so a
    crash after a successful remote call never loses the response. The
    file is opened for appending on the first ``put`` and held until
    ``close``; a later ``put`` opens it again. Opening a new or empty file
    fsyncs its directory too, so the file's name is as durable as its
    lines. Thread-safe.
    """

    def __init__(self, path: str | os.PathLike | None = None) -> None:
        self._path = os.fspath(path) if path is not None else None
        self._lock = threading.Lock()
        self._data: dict[str, Any] = {}
        self._file: IO[bytes] | None = None
        # A killed writer, or a failed write, can leave a last line with no
        # newline; the next append must not land on the end of that fragment.
        self._torn_tail = False
        if self._path is not None and os.path.exists(self._path):
            self._load()

    def _load(self) -> None:
        assert self._path is not None
        skipped = 0
        raw = b"\n"  # an empty file has no torn tail
        with open(self._path, "rb") as fh, gc_paused():
            for line_no, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line:
                    continue
                try:
                    obj = decode_json_line(line.decode("utf-8"))  # per line: a torn one is skipped
                    # Last write wins, matching append order.
                    self._data[obj["key"]] = obj["value"]
                except BAD_ROW:
                    skipped += 1
                    logger.warning("skipping corrupt cache line %d in %s", line_no, self._path)
        self._torn_tail = not raw.endswith(b"\n")
        if skipped:
            logger.warning("cache %s: %d corrupt line(s) ignored", self._path, skipped)

    def get(self, key: str) -> Any | None:
        # No lock: a dict read is atomic, and ``put`` stores a value only
        # once its line is durable, so a reader never waits on an fsync.
        return self._data.get(key)

    def put(self, key: str, value: Any) -> None:
        if self._path is None:
            self._data[key] = value
            return
        line = (_encode_line({"key": key, "value": value}) + "\n").encode("utf-8")
        with self._lock:
            self._append(line)
            self._data[key] = value

    def _append(self, line: bytes) -> None:
        """Write ``line`` whole and fsync it; on failure, leave the tail marked torn."""
        assert self._path is not None
        if self._file is None:
            directory = os.path.dirname(os.path.abspath(self._path))
            os.makedirs(directory, exist_ok=True)
            file = open(self._path, "ab", buffering=0)
            try:
                if os.fstat(file.fileno()).st_size == 0:  # new (or empty): make its name durable
                    _fsync_dir(directory)
            except BaseException:
                file.close()
                raise
            self._file = file
        if self._torn_tail:
            line = b"\n" + line
        self._torn_tail = True  # until the whole line is durable
        view = memoryview(line)
        while view:
            view = view[self._file.write(view) :]
        os.fsync(self._file.fileno())
        self._torn_tail = False

    def close(self) -> None:
        """Close the append handle, if a ``put`` opened one."""
        with self._lock:
            file, self._file = self._file, None
        if file is not None:
            file.close()


class ConnectionPool:
    """Idle keep-alive HTTP/1.1 connections to the origin of ``url``, shared by threads.

    A request takes an idle connection or opens a new one, and gives it
    back once the whole reply is read, unless the reply ends the
    connection. So the pool holds at most as many connections as there
    were requests in flight at once. A reused connection the server has
    closed meanwhile is replaced by a new one once, without counting as a
    failed attempt. HTTPS verifies certificates and host names with
    ``ssl.create_default_context()``. Redirects are returned, not followed.
    Every request goes to the path and query of ``url``, with
    ``User-Agent: geobox`` and ``headers``, rendered once here, and each
    new socket gets ``timeout``.

    ``url`` must be ``http`` or ``https`` with a host, a port from 0 to
    65535 if it names one, no user name or password, and no space,
    control or non-ASCII character in its path or query; a header must
    hold no CR, LF or NUL. Otherwise ``ValueError`` is raised. Its
    message calls the URL ``what`` and names its path, never its query,
    which may carry a key; it names a bad header, not its value.
    """

    def __init__(self, url: str, what: str, headers: dict[str, str], timeout: float) -> None:
        parts = urllib.parse.urlsplit(url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            # Not echoed if "@" may follow a password; never with its query, which may hold a key.
            got = "" if "@" in url else f", got {url.partition('?')[0]!r}"
            raise ValueError(f"{what} must be an http:// or https:// URL with a host{got}")
        if "@" in parts.netloc:  # not echoed: it may hold a password
            raise ValueError(f"{what} must not carry a user name or password")
        try:
            port = parts.port
        except ValueError as exc:  # not a number, or out of range
            raise ValueError(f"{what} has a bad port: {exc}") from None
        if _BAD_TARGET_CHAR.search(parts.path + parts.query):
            raise ValueError(
                f"{what} may not hold spaces, control or non-ASCII characters in its path "
                f"or query: {parts.path!r}"
            )
        self._target = urllib.parse.urlunsplit(("", "", parts.path or "/", parts.query, ""))
        self._join = "&" if parts.query else "?"  # before a request's own parameters
        self._https = parts.scheme == "https"
        default_port = 443 if self._https else 80
        if port is None:
            port = default_port
        host = parts.hostname
        if not host.isascii():
            host = host.encode("idna").decode("ascii")
        self._address = (host, port)
        # The Host header http.client sends: IPv6 in brackets, the port only if not the default.
        host_header = f"[{host}]" if ":" in host else host
        if port != default_port:
            host_header += f":{port}"
        self._head = f"Host: {host_header}\r\nAccept-Encoding: identity\r\n".encode("ascii")
        fields = []
        for name, value in {"User-Agent": "geobox", **headers}.items():
            field = f"{name}: {value}"
            if _BAD_HEADER_CHAR.search(field):
                raise ValueError(f"header {name!r} holds a CR, LF or NUL character")
            fields.append(field + "\r\n")
        self._fields = "".join(fields).encode("latin-1")
        self._timeout = timeout
        self._lock = threading.Lock()
        self._idle: list[tuple[socket.socket, IO[bytes]]] = []
        self._tls: ssl.SSLContext | None = None

    def request(
        self, method: str, params: dict | None, body: bytes | None
    ) -> tuple[int, dict[str, str], bytes]:
        """Send one request; return the reply's status, headers and body.

        The request goes to the pool's URL, with ``params`` URL-encoded
        after its query, in one write; a ``body`` is sent as JSON. Reply
        header names are lower-cased. A failed exchange raises
        ``OSError``: a malformed or truncated reply raises
        ``ConnectionError``.
        """
        target = self._target
        if params:
            target += self._join + urllib.parse.urlencode(params)
        line = f"{method} {target} HTTP/1.1\r\n".encode("latin-1")
        if body is None:
            message = b"".join((line, self._head, self._fields, b"\r\n"))
        else:
            length = b"Content-Length: %d\r\n" % len(body)
            message = b"".join((line, self._head, length, self._fields, _JSON_TYPE, body))
        with self._lock:
            conn = self._idle.pop() if self._idle else None
        if conn is not None:
            try:
                return self._exchange(conn, message)
            except (ConnectionResetError, BrokenPipeError):
                pass  # closed by the server while idle: reopen below
        return self._exchange(self._open(), message)

    def close(self) -> None:
        """Close the idle connections. The pool stays usable."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            _close(conn)

    def _open(self) -> tuple[socket.socket, IO[bytes]]:
        import socket

        sock = socket.create_connection(self._address, self._timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._https:
                if self._tls is None:
                    import ssl

                    self._tls = ssl.create_default_context()
                sock = self._tls.wrap_socket(sock, server_hostname=self._address[0])
        except BaseException:
            sock.close()
            raise
        return sock, sock.makefile("rb")

    def _exchange(
        self, conn: tuple[socket.socket, IO[bytes]], message: bytes
    ) -> tuple[int, dict[str, str], bytes]:
        sock, reader = conn
        try:
            sock.sendall(message)
            status, headers, body, keep = _read_reply(reader)
        except BaseException:
            _close(conn)
            raise
        if keep:
            with self._lock:
                self._idle.append(conn)
        else:
            _close(conn)
        return status, headers, body


# ``json.dumps(x, allow_nan=False)`` builds this same encoder on every call.
_encode_body = json.JSONEncoder(allow_nan=False).encode
# http.client's limits on a reply.
_MAX_LINE = 65536
_MAX_HEADERS = 100
# A body is read in pieces of at most this size, so a false length fails at EOF, not in malloc.
_READ_PIECE = 1 << 20
_BAD_TARGET_CHAR = re.compile(r"[^\x21-\x7e]")
_BAD_HEADER_CHAR = re.compile(r"[\r\n\0]")
# The last field of a request with a body, then the blank line that ends its head.
_JSON_TYPE = b"Content-Type: application/json\r\n\r\n"
_HEX = re.compile(rb"[0-9A-Fa-f]+")
_LINE_ENDS = (b"\r\n", b"\n")


def _close(conn: tuple[socket.socket, IO[bytes]]) -> None:
    sock, reader = conn
    reader.close()
    sock.close()


def _read_reply(reader: IO[bytes]) -> tuple[int, dict[str, str], bytes, bool]:
    """Read one reply: ``(status, headers, body, whether the connection stays open)``."""
    while True:
        line = reader.readline(_MAX_LINE + 1)
        if not line:  # as http.client's RemoteDisconnected
            raise ConnectionResetError("connection closed without a reply")
        if len(line) > _MAX_LINE:
            raise ConnectionError(f"reply line longer than {_MAX_LINE} bytes")
        version, _, rest = line.partition(b" ")
        code = rest[:3]
        if (
            not version.startswith(b"HTTP/1.")
            or not (len(code) == 3 and code.isdigit() and not code.startswith(b"0"))
            or rest[3:4] not in (b" ", b"\r", b"\n", b"")
        ):
            raise ConnectionError(f"malformed status line {line[:100]!r}")
        status = int(code)
        headers = _read_headers(reader)
        if status >= 200:  # a 1xx reply is interim: the final one follows
            break
    to_eof = False
    if status in (204, 304):
        body = b""
    elif headers.get("transfer-encoding", "").lower() == "chunked":
        body = _read_chunked(reader)
    elif "content-length" in headers:
        length = headers["content-length"]
        if not (length.isascii() and length.isdigit()):
            raise ConnectionError(f"bad Content-Length {length[:100]!r}")
        body = _read_exact(reader, int(length))
    else:
        body, to_eof = reader.read(), True
    keep = not (
        to_eof or version == b"HTTP/1.0" or "close" in headers.get("connection", "").lower()
    )
    return status, headers, body, keep


def _read_line(reader: IO[bytes]) -> bytes:
    line = reader.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise ConnectionError(f"reply line longer than {_MAX_LINE} bytes")
    if not line:
        raise ConnectionError("connection closed inside a reply")
    return line


def _read_headers(reader: IO[bytes]) -> dict[str, str]:
    """Read header lines up to the blank line; names lower-cased."""
    headers = {}
    for _ in range(_MAX_HEADERS + 1):
        line = _read_line(reader)
        if line in _LINE_ENDS:
            return headers
        name, colon, value = line.partition(b":")
        if not colon:
            raise ConnectionError(f"malformed header line {line[:100]!r}")
        headers[name.strip().lower().decode("latin-1")] = value.strip().decode("latin-1")
    raise ConnectionError(f"reply has more than {_MAX_HEADERS} headers")


def _read_exact(reader: IO[bytes], size: int) -> bytes:
    pieces = []
    while size > 0:
        piece = reader.read(min(size, _READ_PIECE))
        if not piece:
            raise ConnectionError("connection closed inside a reply body")
        pieces.append(piece)
        size -= len(piece)
    return b"".join(pieces)


def _read_chunked(reader: IO[bytes]) -> bytes:
    pieces = []
    while True:
        size = _read_line(reader).partition(b";")[0].strip()  # a chunk extension is dropped
        if not _HEX.fullmatch(size):
            raise ConnectionError(f"bad chunk size {size[:100]!r}")
        if int(size, 16) == 0:
            _read_headers(reader)  # the trailer, dropped
            return b"".join(pieces)
        pieces.append(_read_exact(reader, int(size, 16)))
        if _read_line(reader) not in _LINE_ENDS:
            raise ConnectionError("chunk not followed by a line end")


def request_json(
    client: ServiceClient,
    method: str,
    *,
    params: dict | None = None,
    json_body: dict | None = None,
) -> tuple[Any, int]:
    """Send one request to ``client``'s URL, retrying transient failures, and decode JSON.

    The headers, timeout, retry and pacing settings are the client's.
    Retries on connect/read errors, HTTP 429 and 5xx, with exponential
    backoff (backoff_s * 2**attempt). Other HTTP errors, redirects
    included, fail immediately as ProtocolError: resending the same
    request cannot help. The client's rate limiter, if it has one, gates
    every attempt including retries. Warnings and errors name the URL
    without its query string, which may carry an API key.

    Returns:
        (decoded JSON body, number of retries performed).

    Raises:
        TransportError: network failure or retryable status after
            ``max_retries`` retries.
        ProtocolError: non-retryable HTTP status, or a body that is not
            UTF-8 JSON (a BOM allowed) or whose strings hold a lone
            surrogate.
    """
    where = client._where
    body = None if json_body is None else _encode_body(json_body).encode("utf-8")
    last_failure = ""
    for attempt in range(client._max_retries + 1):
        if attempt > 0 and client._backoff_s:  # 2.0 ** 1024 overflows: not computed for 0
            time.sleep(client._backoff_s * (2.0 ** (attempt - 1)))
        if client._limiter is not None:
            client._limiter.acquire()
        try:
            status, reply_headers, data = client._pool.request(method, params, body)
        except OSError as exc:
            last_failure = f"{type(exc).__name__}: {exc}"
            logger.warning(
                "request to %s failed (%s), attempt %d", where, last_failure, attempt + 1
            )
            continue
        if status in RETRYABLE_STATUSES:
            last_failure = f"HTTP {status}"
            logger.warning("%s from %s, attempt %d", last_failure, where, attempt + 1)
            continue
        if 300 <= status < 400:
            raise ProtocolError(
                f"HTTP {status} from {where}: redirect to "
                f"{reply_headers.get('location')!r} not followed"
            )
        if status >= 400:
            text = data.decode("utf-8", "replace")
            raise ProtocolError(f"HTTP {status} from {where}: {text[:200]}")
        try:
            reply = decode_json_line(data.decode("utf-8-sig"))  # RFC 8259 8.1: UTF-8 only
        except ValueError as exc:
            raise ProtocolError(f"non-JSON response from {where}: {exc}") from exc
        return reply, attempt
    raise TransportError(
        f"{where} still failing after {client._max_retries} retries (last: {last_failure})"
    )


class ServiceClient:
    """Cached, retried, optionally paced JSON-over-HTTP calls to one service.

    Binds the service's fixed configuration once: a connection pool to
    its ``url``, which the pool checks and calls ``what``, with
    ``headers`` and a timeout of ``TIMEOUT_S`` (30 s unless a subclass
    sets another); the retry settings; the rate limiter
    (``rate_per_sec=None`` means unpaced); the response cache; and
    ``stats``: a Counter of ``requests``, ``retries`` and ``cache_hits``,
    updated under a lock since pool threads share one client. A bad URL
    or header (see ``ConnectionPool``), a negative ``max_retries``, or a
    ``backoff_s`` that is negative or not finite, raises ``ValueError``.
    Subclasses pass their cache key, request and decoder to ``_fetch``.
    """

    TIMEOUT_S = 30.0

    def __init__(
        self,
        url: str,
        what: str,
        *,
        headers: dict[str, str] | None = None,
        max_retries: int = 3,
        backoff_s: float = 0.5,
        rate_per_sec: float | None = None,
        cache_path: str | os.PathLike | None = None,
    ) -> None:
        # First: a bad URL is named before a bad setting, and before the cache loads.
        self._pool = ConnectionPool(url, what, headers or {}, self.TIMEOUT_S)
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if not 0 <= backoff_s < math.inf:  # NaN fails both comparisons
            raise ValueError("backoff_s must be >= 0 and finite")
        self._max_retries = max_retries
        self._backoff_s = backoff_s
        self._limiter = RateLimiter(rate_per_sec) if rate_per_sec is not None else None
        self._cache = JsonlCache(cache_path)
        self._url = url
        self._where = url.partition("?")[0]  # for messages: the query may hold a key
        self._stats_lock = threading.Lock()
        self.stats: collections.Counter[str] = collections.Counter()

    def close(self) -> None:
        """Close the client's idle connections and its cache file. The client stays usable."""
        self._pool.close()
        self._cache.close()

    def _fetch(
        self, key: str, send: Callable[[], tuple[Any, int]], decode: Callable[[Any], Any]
    ) -> Any:
        """Return ``decode(value)`` for the value cached under ``key``.

        On a miss, ``send()`` makes the request and returns ``(value to
        cache, retries)``. ``decode`` checks every value, cached or fresh,
        and a fresh one before it is stored, so a malformed reply never
        poisons reruns, and a malformed cached value fails as it would
        have fresh, without a request.
        """
        cached = self._cache.get(key)
        if cached is not None:
            with self._stats_lock:
                self.stats["cache_hits"] += 1
            return decode(cached)
        value, retries = send()
        with self._stats_lock:
            self.stats["requests"] += 1
            self.stats["retries"] += retries
        result = decode(value)
        self._cache.put(key, value)
        return result


def _fsync_dir(directory: str) -> None:
    """fsync ``directory``, so a file created or renamed in it keeps its name after a crash."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


@contextlib.contextmanager
def _atomic_file(path: str | os.PathLike) -> Iterator[IO[str]]:
    """Open a UTF-8 temp sibling of ``path``; on clean exit, fsync it and rename it over ``path``.

    Each call writes its own uniquely named temp file, so concurrent
    writers of one path never share one; the temp file is removed if the
    write fails, and the old file is left as it was. After the rename the
    directory is fsynced too. A killed writer's temp file stays: no later
    write sweeps ``<path>.tmp.*``, since one may belong to a live writer.
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    # Not tempfile.mkstemp: its 0600 mode would outlive the rename.
    tmp = f"{path}.tmp.{os.urandom(8).hex()}"
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    _fsync_dir(directory)  # the rename itself survives a crash only once this returns


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    """Write a file via a temp sibling + rename, so readers never see a torn file."""
    with _atomic_file(path) as fh:
        fh.write(text)


def atomic_write_jsonl(path: str | os.PathLike, rows: Iterable[Any]) -> None:
    """Write one JSON line per row, atomically: every line or the old file.

    Rows are encoded and written one at a time, so the write holds one
    line in memory, not the file. Each line is
    ``json.dumps(row, ensure_ascii=False)``.
    """
    with _atomic_file(path) as fh:
        for row in rows:
            fh.write(_encode_line(row) + "\n")
