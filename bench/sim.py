"""Chat-completions endpoint simulator for the benchmark, run as its own process.

    python3 bench/sim.py --truth truth.json

Prints ``PORT <n>`` once it listens on 127.0.0.1. Each reply is a pure
function of the request and the generator's truth (see ``gen.py``):
recaller prompts get mention sentences, reasoner prompts get a
multi-KB transcript ending in a box derived from the coordinates the
prompt carries. A call the truth marks with ``retry`` is refused with
HTTP 503 every other time it arrives, so its first attempt in each run
fails and the client's retry succeeds. Every reply, 503s too, waits
``DELAY_S`` and goes out in one write, headers and body together, so no
request stalls on delayed ACK.

``GET /stats`` returns ``{"requests", "refused", "service_ms"}``: chat
requests served so far (503s included), how many of them were refused,
and their summed service time, from a request's arrival to its reply's
last byte, delay included.
"""

from __future__ import annotations

import argparse
import json
import re
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import gen

# Fixed wait before every reply: of the order of the client's own cost per call.
DELAY_S = 0.010

_ENTRY_RE = re.compile(r"Survey entry (\d+) ")


class Simulator:
    def __init__(self, truth: list[dict]) -> None:
        self.truth = truth
        self.requests = 0
        self.refused = 0
        self.service_ns = 0
        self.lock = threading.Lock()
        self._refused_last: set[tuple[int, str]] = set()

    def reply(self, body: dict) -> str | None:
        """The reply's content, or None when this attempt is to be refused."""
        system = user = ""
        for msg in body["messages"]:
            if msg["role"] == "system":
                system = msg["content"]
            elif msg["role"] == "user":
                user = msg["content"]
        entry = int(_ENTRY_RE.search(user).group(1))
        t = self.truth[entry]
        call = "recaller" if "mentioned in a given paragraph" in system else "reasoner"
        if t["retry"] == call:
            key = (entry, call)
            with self.lock:
                if key not in self._refused_last:
                    self._refused_last.add(key)
                    return None
                self._refused_last.remove(key)
        if call == "recaller":
            return gen.recaller_reply(t)
        # "Input: <description> <mention sentences>\nOutput:"
        sentences = user[len("Input: ") + len(t["description"]) :]
        return gen.reasoner_reply(t, gen.shown_mentions(sentences))


def _handler(sim: Simulator):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def setup(self) -> None:
            super().setup()
            self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

        def log_message(self, fmt, *args) -> None:
            pass

        def _send(self, status: str, payload: dict) -> None:
            body = json.dumps(payload).encode("utf-8")
            head = (
                f"HTTP/1.1 {status}\r\nContent-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode("ascii")
            self.wfile.write(head + body)

        def do_GET(self) -> None:
            with sim.lock:
                stats = {"requests": sim.requests, "refused": sim.refused, "service_ms": sim.service_ns / 1e6}
            self._send("200 OK", stats)

        def do_POST(self) -> None:
            start = time.perf_counter_ns()
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            content = sim.reply(body)
            time.sleep(DELAY_S)
            if content is None:
                self._send("503 Service Unavailable", {"error": {"message": "planted refusal"}})
            else:
                self._send(
                    "200 OK",
                    {"id": "sim", "choices": [{"index": 0, "message": {"role": "assistant", "content": content}}]},
                )
            elapsed = time.perf_counter_ns() - start
            with sim.lock:
                sim.requests += 1
                sim.refused += content is None
                sim.service_ns += elapsed

    return Handler


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--truth", required=True)
    args = parser.parse_args()
    with open(args.truth, encoding="utf-8") as fh:
        sim = Simulator(json.load(fh))
    server = ThreadingHTTPServer(("127.0.0.1", 0), _handler(sim))
    server.daemon_threads = True
    print(f"PORT {server.server_address[1]}", flush=True)
    server.serve_forever()


if __name__ == "__main__":
    main()
