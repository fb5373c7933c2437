"""The names the bench tracer patches still exist in the package.

``bench/child.py`` wraps each ``(module, attribute path)`` in its
``SPANS`` and ``COUNTED`` lists, and skips a binding that no longer
resolves, so a refactor that moves a function silently drops its spans.
The lists are read from the file's source with ``ast.literal_eval``:
nothing under ``bench/`` is imported or written.
"""

import ast
import importlib
import pathlib

import pytest

from geobox import reasoner

_CHILD = pathlib.Path(__file__).resolve().parent.parent / "bench" / "child.py"


def _bench_list(name):
    for node in ast.parse(_CHILD.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{_CHILD.name} no longer assigns {name}")


def _resolves(module, path):
    owner = importlib.import_module(module)
    for part in path.split("."):
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return True


SPANS = _bench_list("SPANS")
COUNTED = _bench_list("COUNTED")


@pytest.mark.parametrize("span", sorted({name for _, _, name in SPANS}))
def test_every_span_has_a_binding_that_resolves(span):
    entries = [(module, path) for module, path, name in SPANS if name == span]
    assert any(_resolves(module, path) for module, path in entries), entries


@pytest.mark.parametrize("module, path, name", COUNTED)
def test_every_counted_binding_resolves(module, path, name):
    assert _resolves(module, path)


@pytest.mark.parametrize("name", ["run_experiment", "read_predictions", "load_dataset"])
def test_the_cli_binds_the_end_of_set_up(name):
    # The first call to one of these marks the end of set-up (setup_s).
    assert callable(getattr(importlib.import_module("geobox.cli"), name))


def test_the_chat_client_calls_the_traced_request_json(monkeypatch, chat_stub):
    # The span wraps the name in geobox.reasoner; a call made from anywhere else goes untimed.
    assert ("geobox.reasoner", "request_json", "netutil.request_json") in SPANS
    calls = []
    real = reasoner.request_json

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(reasoner, "request_json", counting)
    client = reasoner.ChatClient(chat_stub.base_url, max_retries=0)
    request = reasoner.ChatRequest(model="m", system="s", user="u")
    client.complete(request)
    assert calls == ["POST"]  # a miss
    client.complete(request)
    assert calls == ["POST"]  # a hit
    client.close()
