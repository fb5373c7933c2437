"""Byte-level goldens for the two rescore commands, and their paused collector.

`geobox eval --report-out` and `geobox analyze --out` over the mixed
predictions file in ``goldens/rescore/`` (see its ``generate.py`` for the
cases it covers) must write exactly the checked-in report bytes: every
float of the metrics and every probe count.

Both commands, and `geobox export-sft`, keep Python's cyclic garbage
collector paused from entry to return. The tests count collections through
``gc.callbacks``, and show the pause is safe: the rows they build hold no
reference cycles, so a collection right after frees as much for the goldens
as for three lines.
"""

import gc

import pytest

from fixtures import GOLDEN_DIR
from geobox import cli
from geobox.cli import EXIT_DATA, EXIT_OK, main

RESCORE_DIR = GOLDEN_DIR / "rescore"
COMMANDS = ["eval", "analyze"]


def _argv(command, predictions=RESCORE_DIR / "predictions.jsonl"):
    return [
        command, "--predictions", str(predictions), "--dataset", str(RESCORE_DIR / "dataset.jsonl")
    ]


@pytest.mark.parametrize(
    "command, out_flag, golden",
    [("eval", "--report-out", "eval.report.json"), ("analyze", "--out", "analyze.report.json")],
)
def test_rescore_report_bytes(capsys, tmp_path, command, out_flag, golden):
    out = tmp_path / golden
    code = main(_argv(command) + [out_flag, str(out)])
    capsys.readouterr()
    assert code == EXIT_OK
    assert out.read_bytes() == (RESCORE_DIR / golden).read_bytes()


@pytest.fixture
def gc_state():
    """Restore the collector's on/off state after the test."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


def _main_counting_collections(monkeypatch, argv):
    """``main(argv)``, and how many collections started while the command held its rows.

    The window opens when the command is entered and closes when the
    list of predictions it read (for ``export-sft``, of records it
    loaded) is freed, on its return.
    """
    started = []
    inside = False

    class Rows(list):
        def __del__(self):
            nonlocal inside
            inside = False

    command, read, load = cli._COMMANDS[argv[0]], cli.read_predictions, cli.load_dataset

    def counted(args):
        nonlocal inside
        inside = True
        try:
            return command(args)
        finally:
            inside = False

    def on_gc(phase, info):
        if phase == "start" and inside:
            started.append(info["generation"])

    monkeypatch.setitem(cli._COMMANDS, argv[0], counted)
    monkeypatch.setattr(cli, "read_predictions", lambda path: Rows(read(path)))
    if argv[0] == "export-sft":  # the rows it holds are the records it loads

        def load_rows(path):
            records, report = load(path)
            return Rows(records), report

        monkeypatch.setattr(cli, "load_dataset", load_rows)
    gc.callbacks.append(on_gc)
    try:
        code = main(argv)
    finally:
        gc.callbacks.remove(on_gc)
    return code, len(started)


@pytest.mark.parametrize("command", COMMANDS)
def test_rescore_runs_no_collection(capsys, monkeypatch, gc_state, command):
    gc.enable()
    gc.collect()
    code, collections = _main_counting_collections(monkeypatch, _argv(command))
    capsys.readouterr()
    assert code == EXIT_OK
    assert collections == 0
    assert gc.isenabled()


@pytest.mark.parametrize("command", COMMANDS)
def test_rescore_leaves_a_disabled_collector_disabled(capsys, monkeypatch, gc_state, command):
    gc.disable()
    code, collections = _main_counting_collections(monkeypatch, _argv(command))
    capsys.readouterr()
    assert (code, collections) == (EXIT_OK, 0)
    assert not gc.isenabled()


@pytest.mark.parametrize("command", COMMANDS)
def test_rescore_data_error_restores_the_collector(capsys, tmp_path, gc_state, command):
    bad = tmp_path / "predictions.jsonl"
    bad.write_text((RESCORE_DIR / "predictions.jsonl").read_text() + "not json\n")
    gc.enable()
    assert main(_argv(command, bad)) == EXIT_DATA
    assert "data error: " in capsys.readouterr().err
    assert gc.isenabled()


@pytest.mark.parametrize("command", COMMANDS)
def test_rescore_rows_hold_no_cycles(capsys, tmp_path, gc_state, command):
    few = tmp_path / "predictions.jsonl"
    lines = (RESCORE_DIR / "predictions.jsonl").read_text().splitlines(keepends=True)
    few.write_text("".join(lines[:3]))
    gc.enable()

    def freed_after(predictions):
        gc.collect()
        assert main(_argv(command, predictions)) == EXIT_OK
        return gc.collect()

    freed_after(few)  # first-run imports and caches
    assert len(lines) == 311
    assert freed_after(RESCORE_DIR / "predictions.jsonl") == freed_after(few)
    capsys.readouterr()


EXPORTS = ["direct", "geoaug-oracle"]


def _export_argv(approach, out, dataset=RESCORE_DIR / "dataset.jsonl"):
    return ["export-sft", "--dataset", str(dataset), "--approach", approach, "--out", str(out)]


@pytest.mark.parametrize("approach", EXPORTS)
def test_export_sft_runs_no_collection(capsys, monkeypatch, tmp_path, gc_state, approach):
    gc.enable()
    gc.collect()
    argv = _export_argv(approach, tmp_path / "sft.jsonl")
    code, collections = _main_counting_collections(monkeypatch, argv)
    capsys.readouterr()
    assert code == EXIT_OK
    assert collections == 0
    assert gc.isenabled()


@pytest.mark.parametrize("approach", EXPORTS)
def test_export_sft_leaves_a_disabled_collector_disabled(
    capsys, monkeypatch, tmp_path, gc_state, approach
):
    gc.disable()
    argv = _export_argv(approach, tmp_path / "sft.jsonl")
    code, collections = _main_counting_collections(monkeypatch, argv)
    capsys.readouterr()
    assert (code, collections) == (EXIT_OK, 0)
    assert not gc.isenabled()


def test_export_sft_data_error_restores_the_collector(capsys, tmp_path, gc_state):
    bad = tmp_path / "dataset.jsonl"
    bad.write_text("not json\n")
    gc.enable()
    assert main(_export_argv("direct", tmp_path / "sft.jsonl", bad)) == EXIT_DATA
    assert "data error: " in capsys.readouterr().err
    assert gc.isenabled()
