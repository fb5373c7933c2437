"""In-process HTTP stubs for the two remote services.

Both stubs run a real ThreadingHTTPServer on an ephemeral localhost
port, so the clients are exercised through genuine sockets, retries and
all. Behavior is scripted per test: canned payloads, failure-status
sequences, malformed bodies. Every accepted request is logged with a
monotonic timestamp for rate-limit assertions, and every accepted
connection is counted. The server closes each connection after one
reply unless the stub is made with ``keep_alive=True``.
"""

from __future__ import annotations

import gc
import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse


class _StubCore:
    """Shared plumbing: server lifecycle, failure queue, request log."""

    def __init__(self) -> None:
        self.requests: list[dict] = []
        self.connections = 0
        self.fail_queue: list[int] = []
        self.malformed_next = 0
        self._lock = threading.Lock()
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    # -- scripting hooks --

    def fail_next(self, count: int, status: int = 500) -> None:
        """Queue `count` failures (HTTP status) before normal service resumes."""
        with self._lock:
            self.fail_queue.extend([status] * count)

    def malform_next(self, count: int = 1) -> None:
        """Queue `count` responses with non-JSON bodies."""
        with self._lock:
            self.malformed_next += count

    def pop_failure(self) -> int | None:
        with self._lock:
            if self.fail_queue:
                return self.fail_queue.pop(0)
            return None

    def pop_malformed(self) -> bool:
        with self._lock:
            if self.malformed_next > 0:
                self.malformed_next -= 1
                return True
            return False

    def log(self, entry: dict) -> None:
        entry["t"] = time.monotonic()
        with self._lock:
            self.requests.append(entry)

    def log_connection(self) -> None:
        with self._lock:
            self.connections += 1

    @property
    def request_count(self) -> int:
        with self._lock:
            return len(self.requests)

    # -- lifecycle --

    def start(self, handler_cls) -> str:
        # Arrival times are taken in the test process, whose collector can
        # pause every thread for tens of milliseconds. Collecting now keeps
        # such a pause out of the requests this stub is about to time.
        gc.collect()
        self._server = ThreadingHTTPServer(("127.0.0.1", 0), handler_cls)
        self._server.stub = self  # type: ignore[attr-defined]
        # A short poll, so shutdown() in each teardown does not wait out the default 0.5 s.
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )
        self._thread.start()
        host, port = self._server.server_address
        return f"http://{host}:{port}"

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)


class _SilentHandler(BaseHTTPRequestHandler):
    def setup(self) -> None:
        super().setup()
        # Headers and body go out in separate writes; without this, Nagle
        # holds the body back for the client's delayed ACK.
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.server.stub.log_connection()  # type: ignore[attr-defined]

    def log_message(self, fmt, *args):  # noqa: D102 - silence default stderr noise
        pass

    def _send_json(self, status: int, payload) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_raw(self, status: int, body: bytes, content_type: str = "text/plain") -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


class ChatStub:
    """Scripted chat-completions endpoint.

    ``script(matcher, content)`` registers a response: ``matcher`` is a
    substring looked for in the user message; the first registered match
    wins. ``default`` answers anything unmatched.
    """

    def __init__(
        self, default: str = "I have no answer for that.", keep_alive: bool = False
    ) -> None:
        self.core = _StubCore()
        self.default = default
        self.keep_alive = keep_alive
        self._rules: list[tuple[str, str]] = []
        self.base_url: str = ""

    def script(self, matcher: str, content: str) -> None:
        self._rules.append((matcher, content))

    def reply_for(self, user_text: str) -> str:
        for matcher, content in self._rules:
            if matcher in user_text:
                return content
        return self.default

    def __enter__(self) -> "ChatStub":
        stub = self

        class Handler(_SilentHandler):
            protocol_version = "HTTP/1.1" if stub.keep_alive else "HTTP/1.0"

            def do_POST(self) -> None:
                length = int(self.headers.get("Content-Length", "0"))
                raw = self.rfile.read(length)
                try:
                    body = json.loads(raw)
                except json.JSONDecodeError:
                    body = {}
                messages = body.get("messages", [])
                user_text = ""
                system_text = ""
                for msg in messages:
                    if msg.get("role") == "user":
                        user_text = msg.get("content", "")
                    elif msg.get("role") == "system":
                        system_text = msg.get("content", "")
                stub.core.log(
                    {
                        "path": self.path,
                        "model": body.get("model"),
                        "user": user_text,
                        "system": system_text,
                        "temperature": body.get("temperature"),
                        "max_tokens": body.get("max_tokens"),
                        "auth": self.headers.get("Authorization"),
                    }
                )
                status = stub.core.pop_failure()
                if status is not None:
                    self._send_json(status, {"error": "scripted failure"})
                    return
                if stub.core.pop_malformed():
                    self._send_raw(200, b"this is not json{", "text/plain")
                    return
                content = stub.reply_for(user_text)
                self._send_json(
                    200,
                    {"choices": [{"message": {"role": "assistant", "content": content}}]},
                )

        self.base_url = self.core.start(Handler)
        return self

    def __exit__(self, *exc) -> None:
        self.core.stop()


class GeocoderStub:
    """Scripted geocoding endpoint (status/results shape).

    ``add(name, lat, lng, viewport=None)`` registers a place; unknown
    names answer ZERO_RESULTS. ``viewport`` is (sw_lng, sw_lat, ne_lng,
    ne_lat).
    """

    def __init__(self) -> None:
        self.core = _StubCore()
        self._places: dict[str, dict] = {}
        self.base_url: str = ""

    @staticmethod
    def _norm(name: str) -> str:
        return " ".join(name.split()).casefold()

    def add(
        self,
        name: str,
        lat: float,
        lng: float,
        viewport: tuple[float, float, float, float] | None = None,
        place_id: str | None = None,
    ) -> None:
        result: dict = {
            "formatted_address": name,
            "place_id": place_id or f"stub-{len(self._places)}",
            "geometry": {"location": {"lat": lat, "lng": lng}},
        }
        if viewport is not None:
            sw_lng, sw_lat, ne_lng, ne_lat = viewport
            result["geometry"]["viewport"] = {
                "southwest": {"lat": sw_lat, "lng": sw_lng},
                "northeast": {"lat": ne_lat, "lng": ne_lng},
            }
        self._places[self._norm(name)] = result

    def __enter__(self) -> "GeocoderStub":
        stub = self

        class Handler(_SilentHandler):
            def do_GET(self) -> None:
                parsed = urlparse(self.path)
                params = parse_qs(parsed.query)
                address = params.get("address", [""])[0]
                stub.core.log(
                    {
                        "path": parsed.path,
                        "address": address,
                        "key": params.get("key", [None])[0],
                    }
                )
                status = stub.core.pop_failure()
                if status is not None:
                    self._send_json(status, {"error": "scripted failure"})
                    return
                if stub.core.pop_malformed():
                    self._send_raw(200, b"<html>not json</html>", "text/html")
                    return
                place = stub._places.get(stub._norm(address))
                if place is None:
                    self._send_json(200, {"status": "ZERO_RESULTS", "results": []})
                    return
                self._send_json(200, {"status": "OK", "results": [place]})

        self.base_url = self.core.start(Handler)
        return self

    def __exit__(self, *exc) -> None:
        self.core.stop()
