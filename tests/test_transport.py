"""The HTTP transport: keep-alive reuse, reopening, TLS settings, redirects, errors."""

import http.client
import json
import socket
import ssl
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from geobox.netutil import ConnectionPool, ProtocolError, TransportError, request_json
from geobox.reasoner import ChatClient, ChatRequest
from stubs import ChatStub


# request_json settings other than max_retries: no backoff, no pacing.
_UNPACED = {"timeout": 5.0, "backoff_s": 0.0, "limiter": None}


def _reply(status: str, body: bytes, *headers: str) -> bytes:
    head = [f"HTTP/1.1 {status}", f"Content-Length: {len(body)}", *headers]
    return ("\r\n".join(head) + "\r\n\r\n").encode("ascii") + body


class RawServer:
    """Answers one request per connection with a fixed reply, then closes it.

    The reply does not say ``Connection: close``, so the client keeps the
    connection for reuse, and finds it closed on its next request, as
    after a server's keep-alive timeout.
    """

    def __init__(self, reply: bytes) -> None:
        self.reply = reply
        self.requests: list[str] = []
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
                data = b""
                while b"\r\n\r\n" not in data:
                    chunk = conn.recv(65536)
                    if not chunk:
                        break
                    data += chunk
                head, _, body = data.partition(b"\r\n\r\n")
                if not head:
                    continue
                lines = head.decode("latin-1").split("\r\n")
                fields = dict(line.lower().split(": ", 1) for line in lines[1:])
                while len(body) < int(fields.get("content-length", 0)):
                    chunk = conn.recv(65536)
                    if not chunk:
                        break
                    body += chunk
                self.requests.append(lines[0])
                conn.sendall(self.reply)

    def close(self) -> None:
        self._sock.shutdown(socket.SHUT_RDWR)
        self._sock.close()
        self._thread.join(timeout=5)


@pytest.fixture
def raw_server():
    servers = []

    def start(reply: bytes) -> RawServer:
        servers.append(RawServer(reply))
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
    contexts = []

    def connect(conn):
        contexts.append(conn._context)
        raise ConnectionRefusedError("not connecting in tests")

    monkeypatch.setattr(http.client.HTTPSConnection, "connect", connect)
    client = ChatClient(base_url="https://127.0.0.1:9/v1", max_retries=0)
    with pytest.raises(TransportError, match="ConnectionRefusedError"):
        client.complete(ChatRequest(model="m", system="s", user="u"))
    assert len(contexts) == 1
    assert contexts[0].verify_mode == ssl.CERT_REQUIRED
    assert contexts[0].check_hostname


def test_redirect_is_not_followed(raw_server):
    server = raw_server(_reply("302 Found", b"", "Location: /elsewhere"))
    pool = ConnectionPool(server.url)
    with pytest.raises(ProtocolError, match="HTTP 302 .*'/elsewhere' not followed"):
        request_json(pool, "GET", server.url + "/geocode", max_retries=2, **_UNPACED)
    pool.close()
    assert server.requests == ["GET /geocode HTTP/1.1"]


def test_unreachable_endpoint_names_the_os_error():
    with socket.create_server(("127.0.0.1", 0)) as sock:
        port = sock.getsockname()[1]  # nothing listens here once closed
    url = f"http://127.0.0.1:{port}/x"
    with pytest.raises(TransportError, match="ConnectionRefusedError"):
        request_json(ConnectionPool(url), "GET", url, max_retries=0, **_UNPACED)
