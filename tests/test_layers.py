"""The package's modules import only downward: nothing below the HTTP layer reaches up into it.

Three layers. ``jsonio`` (JSON decoding, the JSONL reader, atomic
writes) is the bottom and imports no other geobox module. The local
modules (geometry, parsing, prompts, metrics, error analysis, reports,
dataset records) work without a network, so none of them imports the
HTTP plumbing (``netutil``), the clients built on it (``reasoner``,
``gazetteer``), or what drives them (``pipeline``, ``cli``). ``netutil``
itself imports only ``jsonio``.

Imports are read from the source with ``ast``; no module is imported.
Every import statement counts, a function-local one too, in the
relative forms (``from .netutil import x``, ``from . import netutil``)
and the absolute ones (``import geobox.netutil``, ``from geobox import
netutil``, ``from geobox.netutil import x``). Importing the package
itself (``import geobox``, ``from geobox import <name>``) counts as
importing ``__init__``, which imports every module.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "geobox"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}

LOCAL = ["geo", "parsing", "prompts", "metrics", "analysis", "report", "dataset"]
HTTP_AND_ABOVE = {"netutil", "reasoner", "gazetteer", "pipeline", "cli", "__init__"}


def _module(name):
    """The geobox module a package-level name refers to: itself if a module, else ``__init__``."""
    return name if name in MODULES else "__init__"


def geobox_imports(source):
    """The geobox modules that ``source``, a module of the package, imports anywhere."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "geobox":
                    found.add(parts[1] if len(parts) > 1 else "__init__")
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "geobox":
                    continue  # the standard library
                parts = parts[1:]
            if parts and parts[0]:
                found.add(parts[0])
            else:  # from . import x, from geobox import x
                found.update(_module(alias.name) for alias in node.names)
    return found


def _imports_of(module):
    return geobox_imports((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def test_every_import_form_is_seen():
    source = """
import json
from typing import Any
from .geo import BoundingBox

def late():
    import geobox.cli
    from geobox.reasoner import build_prompt
    from geobox import netutil, BoundingBox
    from . import pipeline
    import geobox

class Lazy:
    def method(self):
        from .gazetteer import GazetteerStore
"""
    assert geobox_imports(source) == {
        "geo", "cli", "reasoner", "netutil", "pipeline", "gazetteer", "__init__"
    }


def test_the_layers_name_existing_modules():
    assert {"jsonio", *LOCAL, *HTTP_AND_ABOVE} <= MODULES


def test_jsonio_imports_no_geobox_module():
    assert _imports_of("jsonio") == set()


@pytest.mark.parametrize("module", LOCAL)
def test_local_modules_import_no_http_code(module):
    assert _imports_of(module) & HTTP_AND_ABOVE == set()


def test_netutil_imports_only_jsonio():
    assert _imports_of("netutil") <= {"jsonio"}
