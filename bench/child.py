"""Run the geobox CLI in this process and record what the harness cannot see.

    python3 bench/child.py MARKS_OUT TRACE_OUT|- <geobox CLI arguments>

Calls ``geobox.cli.main`` exactly as the ``geobox`` console script does.
Around it, from outside the package, it notes when set-up ends: the
first call into the command's work (``run_experiment`` for ``run``,
``read_predictions`` for ``eval``/``analyze``), plus any dataset loading
after that. With a trace file it also wraps the layer functions listed
in ``SPANS`` and ``COUNTED`` and writes one span per call: name, start,
end, span id, parent id and record id. Spans stay in memory until the
command returns.

Many functions are bound by ``from ... import``, so each binding is
wrapped where it is called from (``geobox.pipeline.build_prompt``, not
``geobox.reasoner.build_prompt``). A binding that no longer exists is
skipped; the harness then fails the traced run for the missing calls.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time

# (module, attribute path, span name)
SPANS = [
    ("geobox.cli", "run_experiment", "pipeline.run_experiment"),
    ("geobox.pipeline", "run_record", "pipeline.run_record"),
    ("geobox.reasoner", "request_json", "netutil.request_json"),
    ("geobox.netutil", "JsonlCache.put", "netutil.JsonlCache.put"),
    ("geobox.netutil", "JsonlCache.get", "netutil.JsonlCache.get"),
    ("geobox.netutil", "JsonlCache.__init__", "netutil.JsonlCache.load"),
    ("geobox.dataset", "atomic_write_text", "netutil.atomic_write_text"),
    ("geobox.cli", "atomic_write_text", "netutil.atomic_write_text"),
    ("geobox.cli", "write_predictions", "dataset.write_predictions"),
    ("geobox.pipeline", "build_prompt", "reasoner.build_prompt"),
    ("geobox.reasoner", "cache_key", "reasoner.cache_key"),
    ("geobox.reasoner", "ChatClient.complete", "reasoner.ChatClient.complete"),
    ("geobox.pipeline", "extract_prediction", "reasoner.extract_prediction"),
    ("geobox.reasoner", "parse_bbox", "parsing.parse_bbox"),
    ("geobox.cli", "load_dataset", "dataset.load_dataset"),
    ("geobox.cli", "read_predictions", "dataset.read_predictions"),
    ("geobox.cli", "aggregate", "metrics.aggregate"),
    ("geobox.pipeline", "aggregate", "metrics.aggregate"),
    ("geobox.cli", "analyze_errors", "analysis.analyze_errors"),
]

# Hot geometry calls get an exact count and no span.
COUNTED = [
    ("geobox.metrics", "bbox_area_km2", "geo.bbox_area_km2"),
    ("geobox.metrics", "bbox_intersection", "geo.bbox_intersection"),
    ("geobox.analysis", "bbox_intersection", "geo.bbox_intersection"),
]


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, itertools.count] = {}
        self.retries = 0
        self.clients: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = 0  # open run_experiment span: parent of pool-thread spans

    def span(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = tracer._local
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else tracer._root
            span_id = next(tracer._ids)
            record = getattr(local, "record", None)
            if name == "pipeline.run_record":
                record = local.record = args[1].record_id
            stack.append(span_id)
            if name == "pipeline.run_experiment":
                tracer._root = span_id
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                if name == "pipeline.run_record":
                    local.record = None
                if name == "pipeline.run_experiment":
                    tracer._root = 0
                tracer.spans.append((name, start, end, span_id, parent, record))
            if name == "netutil.request_json":
                tracer.retries += result[1]
            return result

        return wrapper

    def counter(self, name: str, fn):
        tick = self.counts.setdefault(name, itertools.count())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            next(tick)
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for module, path, name in SPANS:
            try:
                owner, attr = _resolve(module, path)
                setattr(owner, attr, self.span(name, getattr(owner, attr)))
            except (ImportError, AttributeError):
                continue
        for module, path, name in COUNTED:
            try:
                owner, attr = _resolve(module, path)
                setattr(owner, attr, self.counter(name, getattr(owner, attr)))
            except (ImportError, AttributeError):
                continue
        import geobox.reasoner

        init = geobox.reasoner.ChatClient.__init__

        def keep_client(client, *args, **kwargs):
            init(client, *args, **kwargs)
            self.clients.append(client)

        geobox.reasoner.ChatClient.__init__ = keep_client

    def dump(self, path: str) -> None:
        stats: dict[str, int] = {}
        for client in self.clients:
            for key, value in client.stats.items():
                stats[key] = stats.get(key, 0) + value
        counts = {name: next(tick) for name, tick in self.counts.items()}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"spans": self.spans, "counts": counts, "retries": self.retries, "chat_stats": stats}, fh
            )


def main() -> int:
    marks_path, trace_path, *argv = sys.argv[1:]
    import geobox
    import geobox.cli as cli

    marks = {"geobox": geobox.__file__, "work_start": None, "late_load_s": 0.0}
    tracer = None
    if trace_path != "-":
        tracer = Tracer()
        tracer.install()

    def work_entry(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if marks["work_start"] is None:
                marks["work_start"] = time.monotonic()
            return fn(*args, **kwargs)

        return wrapper

    load = cli.load_dataset

    @functools.wraps(load)
    def timed_load(*args, **kwargs):
        start = time.monotonic()
        try:
            return load(*args, **kwargs)
        finally:
            if marks["work_start"] is not None:
                marks["late_load_s"] += time.monotonic() - start

    cli.run_experiment = work_entry(cli.run_experiment)
    cli.read_predictions = work_entry(cli.read_predictions)
    cli.load_dataset = timed_load

    code = cli.main(argv)
    with open(marks_path, "w", encoding="utf-8") as fh:
        json.dump(marks, fh)
    if tracer is not None:
        tracer.dump(trace_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
