"""Byte-level goldens for the two rescore commands.

`geobox eval --report-out` and `geobox analyze --out` over the mixed
predictions file in ``goldens/rescore/`` (see its ``generate.py`` for the
cases it covers) must write exactly the checked-in report bytes: every
float of the metrics and every probe count.
"""

import pytest

from fixtures import GOLDEN_DIR
from geobox.cli import EXIT_OK, main

RESCORE_DIR = GOLDEN_DIR / "rescore"


@pytest.mark.parametrize(
    "command, out_flag, golden",
    [("eval", "--report-out", "eval.report.json"), ("analyze", "--out", "analyze.report.json")],
)
def test_rescore_report_bytes(capsys, tmp_path, command, out_flag, golden):
    out = tmp_path / golden
    code = main(
        [
            command,
            "--predictions", str(RESCORE_DIR / "predictions.jsonl"),
            "--dataset", str(RESCORE_DIR / "dataset.jsonl"),
            out_flag, str(out),
        ]
    )
    capsys.readouterr()
    assert code == EXIT_OK
    assert out.read_bytes() == (RESCORE_DIR / golden).read_bytes()
