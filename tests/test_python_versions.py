"""The rescore goldens and the value types hold under every other supported Python installed.

Each test runs, with ``PYTHONPATH`` set to this checkout's ``src``, under
each ``python3.10`` to ``python3.13`` that starts and is not the version
running the tests, whether on ``PATH`` or installed by pyenv, and skips
when no such interpreter starts.
``geobox eval`` and ``geobox analyze`` over ``goldens/rescore/`` must
write the checked-in report bytes. The value types' ``__init__`` stores
through each version's slot descriptors, so a short script builds each
type by position and by keyword, replaces, pickles and freezes it.
"""

import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from fixtures import GOLDEN_DIR

RESCORE_DIR = GOLDEN_DIR / "rescore"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _candidates(minor: int) -> list[str]:
    """``python3.<minor>`` on ``PATH``, then each under ``$PYENV_ROOT`` (default ``~/.pyenv``).

    A pyenv shim on ``PATH`` may not start even when pyenv has the
    version installed, so the installs under ``versions/`` are tried too.
    """
    on_path = shutil.which(f"python3.{minor}")
    root = pathlib.Path(os.environ.get("PYENV_ROOT") or pathlib.Path.home() / ".pyenv")
    installed = sorted(str(exe) for exe in root.glob(f"versions/*/bin/python3.{minor}"))
    return ([on_path] if on_path else []) + installed


def _other_pythons() -> list[str]:
    """Each ``python3.10``..``python3.13`` found that starts and is not this version.

    An interpreter counts once per real path, and only if it starts and
    reports its own minor version.
    """
    found, seen = [], set()
    for minor in range(10, 14):
        if (3, minor) == sys.version_info[:2]:
            continue
        for exe in _candidates(minor):
            real = os.path.realpath(exe)
            if real in seen:
                continue
            seen.add(real)
            try:
                probe = subprocess.run(
                    [exe, "-c", "import sys; print(sys.version_info[:2])"],
                    capture_output=True, text=True, timeout=60,
                )
            except (OSError, subprocess.TimeoutExpired):
                continue
            if probe.returncode == 0 and probe.stdout.strip() == f"(3, {minor})":
                found.append(exe)
    return found


def test_rescore_goldens_under_other_pythons(tmp_path):
    pythons = _other_pythons()
    if not pythons:
        pytest.skip("no other python3.10..python3.13 starts")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for exe in pythons:
        for command, out_flag, golden in [
            ("eval", "--report-out", "eval.report.json"),
            ("analyze", "--out", "analyze.report.json"),
        ]:
            out = tmp_path / f"{os.path.basename(exe)}.{golden}"
            done = subprocess.run(
                [
                    exe, "-m", "geobox.cli", command,
                    "--predictions", str(RESCORE_DIR / "predictions.jsonl"),
                    "--dataset", str(RESCORE_DIR / "dataset.jsonl"),
                    out_flag, str(out),
                ],
                capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
            )
            assert done.returncode == 0, (exe, command, done.stderr)
            assert out.read_bytes() == (RESCORE_DIR / golden).read_bytes(), (exe, command)


VALUE_TYPES_SCRIPT = """
import dataclasses, pickle
from geobox import BoundingBox, GeoInfo, GeoPoint, LocationRecord, Mention, Prediction

box = BoundingBox(0.0, 0.0, 1.0, 1.0)
info = GeoInfo("Oman", GeoPoint(0.5, 0.5))
cases = [
    (GeoPoint, (1.5, -2.5)),
    (BoundingBox, (0.0, -1.0, 2.0, 3.0)),
    (GeoInfo, ("Oman", GeoPoint(0.5, 0.5), "OM", box, "p1")),
    (Prediction, ("r1", "direct", "m", box, None, "text", (("Oman", info),), ("degraded",))),
    (Mention, ("Oman", info)),
    (LocationRecord, ("r1", "Near Oman", box, (Mention("Oman"),), "Oman", "OM")),
]
for cls, args in cases:
    names = [f.name for f in dataclasses.fields(cls)]
    value = cls(*args)
    assert tuple(getattr(value, name) for name in names) == args, cls
    assert cls(**dict(zip(names, args))) == value, cls
    assert dataclasses.replace(value, **{names[0]: args[0]}) == value, cls
    assert pickle.loads(pickle.dumps(value)) == value, cls
    try:
        setattr(value, names[0], args[0])
    except dataclasses.FrozenInstanceError:
        pass
    else:
        raise AssertionError(f"{cls.__name__} is not frozen")
try:
    dataclasses.replace(box, lon_min=2.0)
except ValueError as exc:
    assert str(exc).startswith("lon_min > lon_max (2.0 > 1.0)"), exc
else:
    raise AssertionError("replace skipped __post_init__")
print("ok")
"""


def test_value_types_under_other_pythons():
    pythons = _other_pythons()
    if not pythons:
        pytest.skip("no other python3.10..python3.13 starts")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for exe in pythons:
        done = subprocess.run(
            [exe, "-c", VALUE_TYPES_SCRIPT], capture_output=True, text=True, env=env, timeout=120
        )
        assert (done.returncode, done.stdout) == (0, "ok\n"), (exe, done.stderr)
