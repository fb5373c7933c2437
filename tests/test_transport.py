"""The HTTP transport: framing, limits, keep-alive reuse, reopening, TLS, redirects, errors."""

import http.client
import json
import os
import socket
import ssl
import subprocess
import sys
import threading
import time
import urllib.parse
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import geobox
from fixtures import echo_gold_script
from geobox.dataset import write_dataset
from geobox.gazetteer import GeocoderClient
from geobox.netutil import (
    ConnectionPool,
    ProtocolError,
    ServiceClient,
    TransportError,
    request_json,
)
from geobox.pipeline import Approach, ExperimentConfig, RunDeps, run_experiment
from geobox.reasoner import ChatClient, ChatRequest
from stubs import ChatStub


class _Client(ServiceClient):
    """A service client with a 5 s timeout, no backoff and no pacing."""

    TIMEOUT_S = 5.0

    def __init__(self, url: str, max_retries: int) -> None:
        super().__init__(url, "test endpoint", max_retries=max_retries, backoff_s=0.0)


def _reply(status: str, body: bytes, *headers: str) -> bytes:
    head = [f"HTTP/1.1 {status}", f"Content-Length: {len(body)}", *headers]
    return ("\r\n".join(head) + "\r\n\r\n").encode("ascii") + body


class RawServer:
    """Answers each request with a fixed reply, and logs what it received.

    By default it closes each connection after one reply. The reply does
    not say ``Connection: close``, so the client keeps the connection for
    reuse, and finds it closed on its next request, as after a server's
    keep-alive timeout. With ``keep_alive=True`` it answers every request
    a connection brings; with ``half_close=True`` as well, it shuts its
    sending side after each reply, so a reply with no length ends, but it
    still reads, and logs, a request sent on that connection. It serves
    one connection at a time.
    """

    def __init__(self, reply: bytes, keep_alive: bool = False, half_close: bool = False) -> None:
        self.reply = reply
        self.keep_alive = keep_alive
        self.half_close = half_close
        self.requests: list[str] = []
        self.raw: list[bytes] = []  # each request's head and body
        self.connections = 0
        self._sock = socket.create_server(("127.0.0.1", 0))
        self.url = f"http://127.0.0.1:{self._sock.getsockname()[1]}"
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return  # listening socket closed
            with conn:
                self.connections += 1
                self._answer(conn)

    def _answer(self, conn: socket.socket) -> None:
        data = b""
        shut = False
        while True:
            while b"\r\n\r\n" not in data:
                chunk = conn.recv(65536)
                if not chunk:
                    return
                data += chunk
            head, _, data = data.partition(b"\r\n\r\n")
            lines = head.decode("latin-1").split("\r\n")
            fields = dict(line.lower().split(": ", 1) for line in lines[1:])
            length = int(fields.get("content-length", 0))
            while len(data) < length:
                chunk = conn.recv(65536)
                if not chunk:
                    break
                data += chunk
            body, data = data[:length], data[length:]
            self.requests.append(lines[0])
            self.raw.append(head + b"\r\n\r\n" + body)
            if shut:
                return  # logged, but it cannot be answered
            conn.sendall(self.reply)
            if not self.keep_alive:
                return
            if self.half_close:
                conn.shutdown(socket.SHUT_WR)
                shut = True

    def close(self) -> None:
        self._sock.shutdown(socket.SHUT_RDWR)
        self._sock.close()
        self._thread.join(timeout=5)


@pytest.fixture
def raw_server():
    servers = []

    def start(reply: bytes, **options) -> RawServer:
        servers.append(RawServer(reply, **options))
        return servers[-1]

    yield start
    for server in servers:
        server.close()


def _chat_reply(content: str) -> bytes:
    body = json.dumps({"choices": [{"message": {"content": content}}]}).encode("utf-8")
    return _reply("200 OK", body, "Content-Type: application/json")


def test_connection_closed_by_server_while_idle_is_reopened(raw_server):
    server = raw_server(_chat_reply("fine"))
    client = ChatClient(base_url=server.url, max_retries=0)
    for user in ("first", "second"):
        assert client.complete(ChatRequest(model="m", system="s", user=user)) == "fine"
    client.close()
    assert client.stats["retries"] == 0
    assert server.requests == ["POST /chat/completions HTTP/1.1"] * 2  # one per call
    assert server.connections == 2


def test_many_threads_share_one_client_without_warnings(caplog):
    n_calls = 320
    with ChatStub(default="fine", keep_alive=True) as stub:
        client = ChatClient(base_url=stub.base_url, max_retries=0)
        calls = [ChatRequest(model="m", system="s", user=f"u{n}") for n in range(n_calls)]
        with ThreadPoolExecutor(max_workers=32) as pool:
            replies = list(pool.map(client.complete, calls))
        client.close()
        assert replies == ["fine"] * n_calls
        assert stub.core.request_count == n_calls
        assert stub.core.connections <= 32
    assert [r for r in caplog.records if r.levelno >= 30] == []


def test_https_connections_verify_certificates(monkeypatch):
    wrapped = []

    def wrap_socket(context, sock, server_hostname=None, **options):
        wrapped.append((context, server_hostname))
        raise ConnectionRefusedError("not connecting in tests")

    monkeypatch.setattr(ssl.SSLContext, "wrap_socket", wrap_socket)
    with socket.create_server(("127.0.0.1", 0)) as listener:  # accepts the TCP connection only
        port = listener.getsockname()[1]
        client = ChatClient(base_url=f"https://127.0.0.1:{port}/v1", max_retries=0)
        with pytest.raises(TransportError, match="ConnectionRefusedError"):
            client.complete(ChatRequest(model="m", system="s", user="u"))
    assert len(wrapped) == 1
    context, server_hostname = wrapped[0]
    assert context.verify_mode == ssl.CERT_REQUIRED
    assert context.check_hostname
    assert server_hostname == "127.0.0.1"


def test_redirect_is_not_followed(raw_server):
    server = raw_server(_reply("302 Found", b"", "Location: /elsewhere"))
    client = _Client(server.url + "/geocode", max_retries=2)
    with pytest.raises(ProtocolError, match="HTTP 302 .*'/elsewhere' not followed"):
        request_json(client, "GET")
    client.close()
    assert server.requests == ["GET /geocode HTTP/1.1"]


def test_unreachable_endpoint_names_the_os_error():
    with socket.create_server(("127.0.0.1", 0)) as sock:
        port = sock.getsockname()[1]  # nothing listens here once closed
    client = _Client(f"http://127.0.0.1:{port}/x", max_retries=0)
    with pytest.raises(TransportError, match="ConnectionRefusedError"):
        request_json(client, "GET")


_JSON_BODY = b'{"a": 1}'
_CHUNKED_HEAD = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
_CHUNKED = (
    _CHUNKED_HEAD + b"5;name=value\r\n" + _JSON_BODY[:5] + b"\r\n"
    b"3\r\n" + _JSON_BODY[5:] + b"\r\n"
    b"0\r\nX-Checksum: 1234\r\n\r\n"
)


_CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"
_HTTP_1_0 = _reply("200 OK", _JSON_BODY).replace(b"HTTP/1.1", b"HTTP/1.0")
_TO_EOF = b"HTTP/1.1 200 OK\r\n\r\n" + _JSON_BODY


# half_close: the server shuts its sending side after each reply, which
# is what ends a reply that has no length.
@pytest.mark.parametrize(
    ("reply", "half_close", "status", "body", "connections"),
    [
        pytest.param(_reply("200 OK", _JSON_BODY), False, 200, _JSON_BODY, 1, id="content-length"),
        pytest.param(_CHUNKED, False, 200, _JSON_BODY, 1, id="chunked"),
        pytest.param(
            _CONTINUE + _reply("200 OK", _JSON_BODY), False, 200, _JSON_BODY, 1, id="100-continue"
        ),
        pytest.param(b"HTTP/1.1 204 No Content\r\n\r\n", False, 204, b"", 1, id="204"),
        pytest.param(_HTTP_1_0, False, 200, _JSON_BODY, 2, id="http-1.0"),
        pytest.param(
            _reply("200 OK", _JSON_BODY, "Connection: close"), False, 200, _JSON_BODY, 2,
            id="connection-close",
        ),
        pytest.param(_TO_EOF, True, 200, _JSON_BODY, 2, id="to-eof"),
        pytest.param(
            _TO_EOF.replace(b"HTTP/1.1", b"HTTP/1.0"), True, 200, _JSON_BODY, 2, id="http-1.0-to-eof"
        ),
    ],
)  # fmt: skip
def test_reply_framing_and_connection_reuse(
    raw_server, reply, half_close, status, body, connections
):
    server = raw_server(reply, keep_alive=True, half_close=half_close)
    pool = ConnectionPool(server.url + "/x", "test endpoint", {}, 5.0)
    for _ in range(2):
        assert pool.request("GET", None, None)[::2] == (status, body)
    pool.close()
    assert server.requests == ["GET /x HTTP/1.1"] * 2  # none sent on a connection that ended
    assert server.connections == connections


@pytest.mark.parametrize(
    ("path", "target"),
    [
        ("/geocode", "/geocode?address=S%C3%A3o+Paulo"),
        ("/geocode?region=br", "/geocode?region=br&address=S%C3%A3o+Paulo"),
    ],
    ids=["no-query", "query"],
)
def test_params_follow_the_urls_query(raw_server, path, target):
    server = raw_server(_reply("200 OK", _JSON_BODY))
    pool = ConnectionPool(server.url + path, "test endpoint", {}, 5.0)
    pool.request("GET", {"address": "São Paulo"}, None)
    pool.close()
    assert server.requests == [f"GET {target} HTTP/1.1"]


def test_reply_header_names_are_lower_cased(raw_server):
    server = raw_server(_reply("200 OK", _JSON_BODY, "X-Request-ID: abc", "Content-Type: a/b"))
    pool = ConnectionPool(server.url + "/x", "test endpoint", {}, 5.0)
    status, headers, body = pool.request("GET", None, None)
    pool.close()
    assert headers == {"content-length": "8", "x-request-id": "abc", "content-type": "a/b"}


def _fields(n: int) -> list[str]:
    return [f"X-Field-{i}: {i}" for i in range(n)]


@pytest.mark.parametrize(
    ("reply", "ok"),
    [
        (_reply("200 OK", _JSON_BODY, "X-Long: " + "a" * (65536 - 10)), True),
        (_reply("200 OK", _JSON_BODY, "X-Long: " + "a" * (65537 - 10)), False),
        (_reply("200 " + "O" * (65536 - 15), _JSON_BODY), True),  # the status line
        (_reply("200 " + "O" * (65537 - 15), _JSON_BODY), False),
        (_reply("200 OK", _JSON_BODY, *_fields(99)), True),  # with Content-Length, 100 headers
        (_reply("200 OK", _JSON_BODY, *_fields(100)), False),
    ],
    ids=["line-65536", "line-65537", "status-65536", "status-65537", "headers-100", "headers-101"],
)
def test_reply_limits_match_http_client(raw_server, reply, ok):
    server = raw_server(reply)
    client = _Client(server.url + "/x", max_retries=0)
    if ok:
        assert request_json(client, "GET") == ({"a": 1}, 0)
    else:
        with pytest.raises(TransportError, match="ConnectionError: reply (line longer|has more)"):
            request_json(client, "GET")
    client.close()


@pytest.mark.parametrize(
    "reply",
    [
        b"HTTP/1.1 200 OK\r\nContent-Length: 20\r\n\r\n" + _JSON_BODY,
        b"HTTP/1.1 200 OK\r\nContent-Length: 1000000000000000\r\n\r\n" + _JSON_BODY,
        b"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n" + _JSON_BODY,
        _CHUNKED[: _CHUNKED.index(b"3\r\n") + 4],
        _CHUNKED.replace(b"\r\n3\r\n", b"\r\n0x3\r\n"),
        b"HTTQ/1.1 200 OK\r\nContent-Length: 8\r\n\r\n" + _JSON_BODY,
        b"HTTP/1.1 2000 OK\r\nContent-Length: 8\r\n\r\n" + _JSON_BODY,
        b"HTTP/1.1 200 OK\r\nContent-Length 8\r\n\r\n" + _JSON_BODY,
    ],
    ids=[
        "body-cut-short",
        "huge-length",
        "negative-length",
        "chunk-cut-short",
        "bad-chunk-size",
        "bad-version",
        "bad-status",
        "header-without-colon",
    ],
)
def test_broken_reply_is_retried_then_fails(raw_server, reply):
    server = raw_server(reply)
    client = _Client(server.url + "/x", max_retries=1)
    with pytest.raises(TransportError, match="still failing after 1 retries .*ConnectionError"):
        request_json(client, "GET")
    client.close()
    assert server.requests == ["GET /x HTTP/1.1"] * 2


@pytest.mark.parametrize("key", ["k\r\nX-Injected: 1", "k\nX-Injected: 1"], ids=["crlf", "lf"])
def test_line_break_in_api_key_is_refused_before_sending(raw_server, monkeypatch, key):
    # Refused when the client is built, so no request can carry it.
    server = raw_server(_chat_reply("fine"))
    monkeypatch.setenv("LLM_API_KEY", key)
    with pytest.raises(ValueError, match="'Authorization' holds a CR, LF or NUL") as caught:
        ChatClient(base_url=server.url, max_retries=0)
    assert key not in str(caught.value)
    assert server.connections == 0


@pytest.mark.parametrize(
    "headers",
    [{"X-Note": "a\x00b"}, {"X-Note\r\nX-Injected": "1"}],
    ids=["nul-in-value", "crlf-in-name"],
)
def test_bad_header_is_refused_before_sending(raw_server, headers):
    server = raw_server(_reply("200 OK", _JSON_BODY))
    with pytest.raises(ValueError, match="holds a CR, LF or NUL"):
        ConnectionPool(server.url + "/x", "test endpoint", headers, 5.0)
    assert server.connections == 0


@pytest.mark.parametrize(
    "path", ["/a b", "/a\x1fb", "/a\x7fb", "/café"], ids=["space", "control", "del", "non-ascii"]
)
def test_bad_request_target_is_refused_before_sending(raw_server, path):
    # Refused when the client is built, so no request can carry it.
    server = raw_server(_reply("200 OK", _JSON_BODY))
    with pytest.raises(ValueError, match="test endpoint may not hold spaces") as caught:
        _Client(server.url + path + "?key=sekrit", max_retries=0)
    assert "sekrit" not in str(caught.value)
    assert server.connections == 0


@pytest.mark.parametrize(
    "content, error",
    [(b"\\ud800", "surrogates not allowed"), (b"\xed\xa0\x80", "can't decode byte 0xed")],
    ids=["escape", "raw-bytes"],
)
@pytest.mark.parametrize("cached", [False, True], ids=["memory-cache", "file-cache"])
def test_lone_surrogate_in_a_reply_is_a_protocol_error(
    raw_server, tmp_path, content, error, cached
):
    body = b'{"choices": [{"message": {"content": "a' + content + b'"}}]}'
    server = raw_server(_reply("200 OK", body))
    cache = tmp_path / "llm_cache.jsonl"
    client = ChatClient(base_url=server.url, max_retries=0, cache_path=cache if cached else None)
    with pytest.raises(ProtocolError, match=error):
        client.complete(ChatRequest(model="m", system="s", user="u"))
    client.close()
    assert not cache.exists()


_COMPLETION = '{"choices": [{"message": {"content": "(1.0, 2.0)"}}]}'


def test_reply_starting_with_a_utf8_bom_completes(raw_server, tmp_path):
    server = raw_server(_reply("200 OK", b"\xef\xbb\xbf" + _COMPLETION.encode("utf-8")))
    cache = tmp_path / "llm_cache.jsonl"
    client = ChatClient(base_url=server.url, max_retries=0, cache_path=cache)
    assert client.complete(ChatRequest(model="m", system="s", user="u")) == "(1.0, 2.0)"
    client.close()
    assert cache.exists()


def test_utf16_reply_is_a_protocol_error(raw_server, tmp_path):
    # RFC 8259 section 8.1: JSON exchanged between systems is UTF-8.
    server = raw_server(_reply("200 OK", _COMPLETION.encode("utf-16-le")))
    cache = tmp_path / "llm_cache.jsonl"
    client = ChatClient(base_url=server.url, max_retries=0, cache_path=cache)
    with pytest.raises(ProtocolError, match="non-JSON response"):
        client.complete(ChatRequest(model="m", system="s", user="u"))
    client.close()
    assert not cache.exists()


@pytest.mark.parametrize(
    "body", [b"[]", b'{"choices": []}', b'{"choices": [{"message": {}}]}'],
    ids=["list", "no-choice", "no-content"],
)  # fmt: skip
def test_completion_of_the_wrong_shape_is_a_protocol_error(raw_server, tmp_path, records, body):
    server = raw_server(_reply("200 OK", body))
    cache = tmp_path / "llm_cache.jsonl"
    client = ChatClient(base_url=server.url, max_retries=0, cache_path=cache)
    with pytest.raises(ProtocolError, match="malformed completion response") as caught:
        client.complete(ChatRequest(model="m", system="s", user="u"))
    assert type(caught.value) is ProtocolError  # not EmptyResponseError
    predictions, _ = run_experiment(
        ExperimentConfig(Approach.DIRECT, "m"), records[:1], RunDeps(chat=client)
    )
    client.close()
    assert predictions[0].flags == ("protocol_error",)
    assert not cache.exists()


def _send_with_http_client(url, method, target, headers, body):
    """Send one request the way ``http.client`` does, to compare its bytes with geobox's."""
    parts = urllib.parse.urlsplit(url)
    https = parts.scheme == "https"
    conn = (http.client.HTTPSConnection if https else http.client.HTTPConnection)(parts.netloc)
    conn.request(method, target, body=body, headers=headers)
    conn.getresponse().read()
    conn.close()


@pytest.mark.parametrize(
    "url",
    [
        "http://127.0.0.1:8080/v1?q=1",
        "http://example.com:80/v1",
        "http://bücher.example/v1",
        "http://[::1]/v1",
        "http://[::1]:8080/v1",
        "https://example.com:8443/v1",
    ],
)
@pytest.mark.parametrize("method", ["GET", "POST"])
def test_request_bytes_match_http_client(raw_server, monkeypatch, url, method):
    server = raw_server(_reply("200 OK", _JSON_BODY), keep_alive=True)
    real_connect, port = socket.create_connection, urllib.parse.urlsplit(server.url).port
    # Every host reaches the server, and TLS is left out, so both clients' bytes can be compared.
    monkeypatch.setattr(
        socket, "create_connection", lambda _, *a, **k: real_connect(("127.0.0.1", port), *a, **k)
    )
    monkeypatch.setattr(ssl.SSLContext, "wrap_socket", lambda context, sock, **k: sock)
    body = b'{"model": "m"}' if method == "POST" else None
    headers = {"User-Agent": "geobox", "Authorization": "Bearer k"}
    if body is not None:
        headers["Content-Type"] = "application/json"

    pool = ConnectionPool(url, "test endpoint", {"Authorization": "Bearer k"}, 5.0)
    pool.request(method, None, body)
    pool.close()
    parts = urllib.parse.urlsplit(url)
    target = f"{parts.path}?{parts.query}" if parts.query else parts.path
    _send_with_http_client(url, method, target, headers, body)
    assert len(server.raw) == 2
    assert server.raw[0] == server.raw[1]


@pytest.mark.parametrize("key", [None, "k-123"], ids=["no-key", "key"])
def test_chat_client_sends_the_bytes_http_client_sends(raw_server, monkeypatch, key):
    server = raw_server(_chat_reply("fine"), keep_alive=True)
    headers = {"User-Agent": "geobox"}
    if key is None:
        monkeypatch.delenv("LLM_API_KEY", raising=False)
    else:
        monkeypatch.setenv("LLM_API_KEY", key)
        headers["Authorization"] = f"Bearer {key}"
    headers["Content-Type"] = "application/json"
    client = ChatClient(base_url=server.url + "/v1", max_retries=0)
    assert client.complete(ChatRequest(model="m", system="s", user="u")) == "fine"
    client.close()
    messages = [{"role": "system", "content": "s"}, {"role": "user", "content": "u"}]
    body = {"model": "m", "messages": messages, "temperature": 0.0, "max_tokens": 1024}
    target = "/v1/chat/completions"
    _send_with_http_client(server.url, "POST", target, headers, json.dumps(body).encode())
    assert len(server.raw) == 2
    assert server.raw[0] == server.raw[1]


def test_geocoder_client_sends_the_bytes_http_client_sends(raw_server):
    reply = _reply("200 OK", b'{"status": "ZERO_RESULTS", "results": []}')
    server = raw_server(reply, keep_alive=True)
    client = GeocoderClient(server.url + "/geocode?region=br", api_key="k-123", max_retries=0)
    assert client.geocode("São Paulo") is None
    client.close()
    target = "/geocode?region=br&address=S%C3%A3o+Paulo&key=k-123"
    _send_with_http_client(server.url, "GET", target, {"User-Agent": "geobox"}, None)
    assert len(server.raw) == 2
    assert server.raw[0] == server.raw[1]


def test_http_run_loads_no_http_client_or_tls(tmp_path, records, chat_stub):
    for description, reply in echo_gold_script(records).items():
        chat_stub.script(description, reply)
    dataset = tmp_path / "dataset.jsonl"
    write_dataset(records, dataset)
    argv = [
        "run", "--approach", "direct", "--model", "m", "--dataset", str(dataset),
        "--llm-base", chat_stub.base_url, "--predictions", str(tmp_path / "p.jsonl"),
        "--cache-dir", str(tmp_path / "cache"),
    ]  # fmt: skip
    code = (
        "import sys; from geobox.cli import main; code = main(%r); "
        "print(code, sorted({'http.client', 'ssl', 'email.parser'} & set(sys.modules)))" % argv
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(geobox.__file__))}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.splitlines()[-1] == "0 []"
    assert chat_stub.core.request_count == len(records)


@pytest.mark.parametrize(
    "reply",
    [
        None,
        _reply("503 Service Unavailable", b""),
        _reply("404 Not Found", b"no"),
        _reply("200 OK", b"<html>"),
    ],
    ids=["refused", "503", "404", "non-json"],
)
def test_geocoder_api_key_is_not_logged_or_raised(raw_server, caplog, reply):
    if reply is None:
        with socket.create_server(("127.0.0.1", 0)) as sock:
            url = f"http://127.0.0.1:{sock.getsockname()[1]}/geocode"  # nothing listens once closed
    else:
        url = raw_server(reply).url + "/geocode"
    client = GeocoderClient(url, api_key="sekrit123", max_retries=1, backoff_s=0.0)
    with pytest.raises((TransportError, ProtocolError)) as caught:
        client.geocode("Foo")
    client.close()
    assert "/geocode" in str(caught.value)
    assert "sekrit123" not in str(caught.value)
    assert "sekrit123" not in caplog.text


# A valid reply in each framing; every prefix of one is a truncated reply.
_VALID_REPLIES = [_reply("200 OK", _JSON_BODY, "Content-Type: application/json"), _CHUNKED]


@pytest.fixture(scope="module")
def fuzz_server():
    server = RawServer(b"")
    yield server
    server.close()


def _answer_within_timeout(server: RawServer, reply: bytes) -> None:
    server.reply = reply
    client = _Client(server.url + "/x", max_retries=0)
    start = time.monotonic()
    try:
        request_json(client, "GET")
    except (TransportError, ProtocolError):
        pass
    finally:
        client.close()
    assert time.monotonic() - start < _Client.TIMEOUT_S


@settings(max_examples=150, deadline=None)
@given(
    st.binary(max_size=400)
    | st.builds(
        bytes.__add__,
        st.sampled_from([b"HTTP/1.1 200 OK\r\n", b"HTTP/1.0 100 Go\r\n\r\n"]),
        st.binary(),
    )
    | st.builds(
        bytes.__add__,
        st.sampled_from([b"HTTP/1.1 200 OK\r\nContent-Length: 12\r\n\r\n", _CHUNKED_HEAD]),
        st.binary(),
    )
)
@example(b"HTTP/1.1 200 OK\r\n\r\n" + b"[" * 100_000)
@example(_CHUNKED_HEAD + b"ffffffffffffffffff\r\n")
def test_arbitrary_reply_returns_or_raises_a_service_error(fuzz_server, reply):
    _answer_within_timeout(fuzz_server, reply)


@pytest.mark.parametrize("valid", _VALID_REPLIES, ids=["content-length", "chunked"])
def test_every_truncated_reply_returns_or_raises_a_service_error(fuzz_server, valid):
    for end in range(len(valid) + 1):
        _answer_within_timeout(fuzz_server, valid[:end])
