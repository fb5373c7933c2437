"""The rescore goldens hold under every other supported Python on ``PATH``.

``geobox eval`` and ``geobox analyze`` over ``goldens/rescore/`` run, with
``PYTHONPATH`` set to this checkout's ``src``, under each of
``python3.10`` to ``python3.13`` that starts and is not the interpreter
running the tests, and must write the checked-in report bytes. The test
skips when no such interpreter starts.
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


def _other_pythons() -> list[str]:
    """Each ``python3.10``..``python3.13`` on ``PATH`` that starts and is not this version."""
    found = []
    for minor in range(10, 14):
        exe = shutil.which(f"python3.{minor}")
        if exe is None or (3, minor) == sys.version_info[:2]:
            continue
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
