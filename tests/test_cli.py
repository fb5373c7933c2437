import json
import pathlib

import pytest

from fixtures import MIXED_EXPECT, echo_gold_script, make_fixture_gazetteer, mixed_failure_script
from geobox.cli import EXIT_DATA, EXIT_OK, EXIT_TRANSPORT, EXIT_USAGE, main
from geobox.dataset import read_predictions, write_dataset
from geobox.prompts import PromptKind, system_text


@pytest.fixture
def dataset_path(tmp_path, records):
    path = tmp_path / "dataset.jsonl"
    write_dataset(records, path)
    return str(path)


def _echo(chat_stub, records):
    for description, reply in echo_gold_script(records).items():
        chat_stub.script(description, reply)


def _run_args(dataset_path, chat_stub, preds_path, *extra):
    return [
        "run",
        "--approach",
        "direct",
        "--model",
        "test-m",
        "--dataset",
        dataset_path,
        "--llm-base",
        chat_stub.base_url,
        "--predictions",
        str(preds_path),
        *extra,
    ]


def test_exit_code_values():
    assert (EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_TRANSPORT) == (0, 1, 2, 3)


def test_usage_errors_exit_1(capsys, tmp_path):
    assert main([]) == EXIT_USAGE
    assert main(["frobnicate"]) == EXIT_USAGE
    assert main(["run", "--approach", "nonsense"]) == EXIT_USAGE
    assert main(["run", "--approach", "direct", "--dataset", "x.jsonl"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "--model" in err


def test_missing_dataset_exits_2(capsys, tmp_path, chat_stub):
    code = main(_run_args(str(tmp_path / "absent.jsonl"), chat_stub, tmp_path / "p.jsonl"))
    assert code == EXIT_DATA
    assert "data error" in capsys.readouterr().err


def test_run_echo_gold(capsys, tmp_path, records, dataset_path, chat_stub):
    _echo(chat_stub, records)
    report_path = tmp_path / "report.json"
    preds_path = tmp_path / "preds.jsonl"
    code = main(
        _run_args(dataset_path, chat_stub, preds_path, "--report-out", str(report_path))
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    row = out.splitlines()[2]
    assert row.startswith("direct")
    assert "test-m" in row
    assert "100.0" in row
    assert "1.000" in row

    predictions = read_predictions(preds_path)
    assert len(predictions) == len(records)
    assert all(p.covered for p in predictions)

    stored = json.loads(report_path.read_text())
    assert stored["label"] == "direct/test-m"
    assert stored["coverage_pct"] == 100.0
    assert stored["area_f1"] == 1.0
    assert stored["mean_distance_km"] == 0.0


def test_warm_cache_rerun_is_byte_identical(capsys, tmp_path, records, dataset_path, chat_stub):
    _echo(chat_stub, records)
    preds_path = tmp_path / "preds.jsonl"
    args = _run_args(
        dataset_path, chat_stub, preds_path, "--cache-dir", str(tmp_path / "cache")
    )
    assert main(args) == EXIT_OK
    first_out = capsys.readouterr().out
    first_bytes = preds_path.read_bytes()
    n_requests = chat_stub.core.request_count
    assert n_requests == len(records)

    assert main(args) == EXIT_OK
    assert capsys.readouterr().out == first_out
    assert preds_path.read_bytes() == first_bytes
    assert chat_stub.core.request_count == n_requests


def test_dead_endpoint_exits_3(capsys, tmp_path, dataset_path):
    preds_path = tmp_path / "preds.jsonl"
    code = main(
        [
            "run",
            "--approach",
            "direct",
            "--model",
            "m",
            "--dataset",
            dataset_path,
            "--llm-base",
            "http://127.0.0.1:9",
            "--predictions",
            str(preds_path),
            "--retries",
            "0",
            "--backoff",
            "0.01",
            "--limit",
            "2",
        ]
    )
    assert code == EXIT_TRANSPORT
    captured = capsys.readouterr()
    assert "transport error" in captured.err
    assert "0.0" in captured.out  # the report still prints
    predictions = read_predictions(preds_path)
    assert len(predictions) == 2
    assert all("transport_error" in p.flags for p in predictions)


def test_partial_outage_still_exits_0(tmp_path, records, dataset_path, chat_stub):
    _echo(chat_stub, records)
    chat_stub.core.fail_next(1, status=500)
    preds_path = tmp_path / "preds.jsonl"
    code = main(
        _run_args(dataset_path, chat_stub, preds_path, "--retries", "0", "--backoff", "0.01")
    )
    assert code == EXIT_OK
    predictions = read_predictions(preds_path)
    flagged = [p for p in predictions if "transport_error" in p.flags]
    assert len(flagged) == 1
    assert sum(p.covered for p in predictions) == len(records) - 1


def test_bad_run_options_exit_1(capsys, tmp_path, records, dataset_path, chat_stub):
    preds = tmp_path / "p.jsonl"
    assert main(_run_args(dataset_path, chat_stub, preds, "--parallelism", "0")) == EXIT_USAGE
    assert main(_run_args(dataset_path, chat_stub, preds, "--limit", "0")) == EXIT_USAGE
    capsys.readouterr()
    base = _run_args(dataset_path, chat_stub, preds)
    base[2] = "geoaug-oracle"  # needs a gazetteer store
    assert main(base) == EXIT_USAGE
    assert capsys.readouterr().err == "error: geoaug-oracle requires --gazetteer\n"
    base[2] = "geoaug-remote"  # needs a geocoder
    assert main(base) == EXIT_USAGE
    assert capsys.readouterr().err == "error: geoaug-remote requires --geocoder-endpoint\n"


@pytest.mark.parametrize("flag", ["--retries", "--backoff"])
def test_negative_retry_settings_exit_1(capsys, tmp_path, dataset_path, chat_stub, flag):
    preds = tmp_path / "p.jsonl"
    assert main(_run_args(dataset_path, chat_stub, preds, flag, "-1")) == EXIT_USAGE
    assert "must be >= 0" in capsys.readouterr().err
    assert chat_stub.core.request_count == 0
    assert not preds.exists()


@pytest.mark.parametrize("cache", [False, True], ids=["no-cache-dir", "cache-dir"])
def test_reply_with_a_lone_surrogate_flags_only_its_record(
    tmp_path, records, dataset_path, chat_stub, cache
):
    chat_stub.script(records[0].description, "(6.0, 46.0, 7.0, 47.0) \ud800")  # first match wins
    _echo(chat_stub, records)
    preds = tmp_path / "p.jsonl"
    extra = ["--cache-dir", str(tmp_path / "cache")] if cache else []
    assert main(_run_args(dataset_path, chat_stub, preds, "--retries", "0", *extra)) == EXIT_OK
    flags = {p.record_id: p.flags for p in read_predictions(preds)}
    assert flags.pop(records[0].record_id) == ("protocol_error",)
    assert set(flags.values()) == {()}
    assert len(flags) == len(records) - 1


@pytest.mark.parametrize("where", ["dataset", "predictions"])
def test_lone_surrogate_in_an_input_line(
    capsys, tmp_path, records, dataset_path, chat_stub, where
):
    # A dataset line holding one is skipped; a predictions line is a data error.
    _echo(chat_stub, records)
    preds = tmp_path / "p.jsonl"
    assert main(_run_args(dataset_path, chat_stub, preds)) == EXIT_OK
    path = pathlib.Path(dataset_path if where == "dataset" else preds)
    lines = path.read_text(encoding="utf-8").splitlines()
    key = "description" if where == "dataset" else "raw_text"
    lines[1] = lines[1].replace(f'"{key}": "', f'"{key}": "\\ud800', 1)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    if where == "dataset":
        assert main(_run_args(dataset_path, chat_stub, preds)) == EXIT_OK
        assert len(read_predictions(preds)) == len(records) - 1
    else:
        assert main(["eval", "--dataset", dataset_path, "--predictions", str(path)]) == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"data error: predictions {path} line 2: ")


def test_config_with_a_lone_surrogate_exits_1(capsys, tmp_path, dataset_path, chat_stub):
    config = tmp_path / "run.json"
    config.write_text('{"model": "m\\ud800"}')
    preds = tmp_path / "p.jsonl"
    args = _run_args(dataset_path, chat_stub, preds)
    del args[3:5]  # --model comes from the config
    assert main([*args, "--config", str(config)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: cannot read config {config}: ")
    assert chat_stub.core.request_count == 0
    assert not preds.exists()


@pytest.mark.parametrize("flag", ["--model", "--recaller-model"])
def test_non_utf8_text_option_exits_1(capsys, tmp_path, dataset_path, chat_stub, flag):
    # Python decodes the argv byte 0xff to the lone surrogate "\udcff".
    preds = tmp_path / "p.jsonl"
    assert main(_run_args(dataset_path, chat_stub, preds, flag, "m\udcff")) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {flag} is not UTF-8 text: 'm\\udcff'\n"
    assert chat_stub.core.request_count == 0
    assert not preds.exists()


def test_non_utf8_label_exits_1_before_any_file_is_read(capsys, tmp_path):
    missing = str(tmp_path / "absent.jsonl")  # reading it would exit 2
    args = ["eval", "--predictions", missing, "--dataset", missing, "--label", "l\udcff"]
    assert main(args) == EXIT_USAGE
    assert capsys.readouterr().err == "error: --label is not UTF-8 text: 'l\\udcff'\n"


@pytest.mark.parametrize("value", ["nan", "inf", "config-1e400"])
def test_non_finite_backoff_exits_1(capsys, tmp_path, dataset_path, chat_stub, value):
    preds = tmp_path / "p.jsonl"
    if value.startswith("config-"):
        config = tmp_path / "run.json"
        config.write_text('{"backoff": 1e400}')  # decodes to inf
        extra = ["--config", str(config)]
    else:
        extra = ["--backoff", value]
    assert main(_run_args(dataset_path, chat_stub, preds, *extra)) == EXIT_USAGE
    assert "must be >= 0" in capsys.readouterr().err
    assert chat_stub.core.request_count == 0
    assert not preds.exists()


def test_line_break_in_the_api_key_exits_1_before_any_record_runs(
    capsys, monkeypatch, tmp_path, dataset_path, chat_stub
):
    started = []
    monkeypatch.setattr("geobox.cli.run_experiment", lambda *a, **k: started.append(a))
    monkeypatch.setenv("LLM_API_KEY", "k\r\nX-Injected: 1")
    preds = tmp_path / "p.jsonl"
    assert main(_run_args(dataset_path, chat_stub, preds, "--parallelism", "2")) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == "error: header 'Authorization' holds a CR, LF or NUL character\n"
    assert started == []
    assert chat_stub.core.request_count == 0
    assert not preds.exists()


def test_many_retries_without_backoff_exit_3(capsys, tmp_path, dataset_path):
    # Every attempt is refused at once; no backoff of 2 ** 1024 is computed for them.
    preds = tmp_path / "p.jsonl"
    argv = [
        "run", "--approach", "direct", "--model", "m", "--dataset", dataset_path,
        "--llm-base", "http://127.0.0.1:9/v1", "--predictions", str(preds),
        "--retries", "1100", "--backoff", "0", "--limit", "1",
    ]  # fmt: skip
    assert main(argv) == EXIT_TRANSPORT
    assert "every record failed to reach the endpoint" in capsys.readouterr().err
    assert read_predictions(preds)[0].flags == ("transport_error",)


@pytest.mark.parametrize(
    ("flag", "case"),
    [
        ("--llm-base", "no-scheme"),
        ("--geocoder-endpoint", "no-scheme"),
        ("--llm-base", "password"),
        ("--llm-base", "bad-port"),
        ("--llm-base", "no-scheme-password"),
        ("--llm-base", "ftp-password"),
        ("--llm-base", "space"),
        ("--geocoder-endpoint", "space"),
        ("--geocoder-endpoint", "no-scheme-key"),
    ],
    ids=[
        "--llm-base",
        "--geocoder-endpoint",
        "--llm-base-with-password",
        "--llm-base-with-bad-port",
        "--llm-base-no-scheme-with-password",
        "--llm-base-ftp-with-password",
        "--llm-base-with-space",
        "--geocoder-endpoint-with-space",
        "--geocoder-endpoint-no-scheme-with-key",
    ],
)
def test_url_without_scheme_exits_1(capsys, tmp_path, dataset_path, chat_stub, flag, case):
    preds = tmp_path / "p.jsonl"
    # The chat client checks the URL it posts to: the base plus its path.
    suffix = "/chat/completions" if flag == "--llm-base" else ""
    if case == "space":  # refused when the client is built; the query is not echoed
        what = "chat endpoint" if flag == "--llm-base" else "geocoder endpoint"
        bad = chat_stub.base_url + "/a b?key=secret"
        message = f"error: {what} may not hold spaces, control or non-ASCII characters in its path"
    elif case == "no-scheme-key":  # echoed without its query
        bad = chat_stub.base_url.removeprefix("http://") + "/geocode?key=secret"
        message = f"got {bad.partition('?')[0]!r}\n"
    elif case == "password":
        bad = chat_stub.base_url.replace("http://", "http://user:secret@")
        message = "chat endpoint must not carry a user name or password"
    elif case == "bad-port":
        bad = chat_stub.base_url.rsplit(":", 1)[0] + ":99999/v1"
        message = "chat endpoint has a bad port: Port out of range 0-65535"
    elif case.endswith("-password"):  # no scheme, or not http(s): not echoed either
        scheme = "ftp://" if case == "ftp-password" else ""
        bad = chat_stub.base_url.replace("http://", f"{scheme}user:secret@")
        message = "chat endpoint must be an http:// or https:// URL with a host\n"
    else:
        bad = chat_stub.base_url.removeprefix("http://")
        message = f"must be an http:// or https:// URL with a host, got {bad + suffix!r}"
    assert main(_run_args(dataset_path, chat_stub, preds, flag, bad)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert message in err
    assert "secret" not in err
    assert chat_stub.core.request_count == 0
    assert not preds.exists()


@pytest.mark.parametrize("content", [None, b"\xff\xfe not utf-8\n"], ids=["missing", "binary"])
def test_unreadable_gazetteer_exits_2(capsys, tmp_path, dataset_path, chat_stub, content):
    gazetteer = tmp_path / "gazetteer.jsonl"
    if content is not None:
        gazetteer.write_bytes(content)
    base = _run_args(dataset_path, chat_stub, tmp_path / "p.jsonl", "--gazetteer", str(gazetteer))
    base[2] = "geoaug-oracle"
    assert main(base) == EXIT_DATA
    assert f"data error: cannot read gazetteer {gazetteer}: " in capsys.readouterr().err
    assert chat_stub.core.request_count == 0


@pytest.mark.parametrize("flag", ["--dataset", "--predictions"])
def test_non_utf8_input_exits_2(capsys, tmp_path, dataset_path, chat_stub, flag):
    binary = tmp_path / "binary.jsonl"
    binary.write_bytes(b"\xff\xfe not utf-8\n")
    if flag == "--dataset":
        argv = _run_args(str(binary), chat_stub, tmp_path / "p.jsonl")
        what = "dataset"
    else:
        argv = ["eval", "--predictions", str(binary), "--dataset", dataset_path]
        what = "predictions"
    assert main(argv) == EXIT_DATA
    assert f"data error: cannot read {what} {binary}: " in capsys.readouterr().err
    assert chat_stub.core.request_count == 0


def test_limit_truncates_run(tmp_path, records, dataset_path, chat_stub):
    _echo(chat_stub, records)
    preds_path = tmp_path / "preds.jsonl"
    assert main(_run_args(dataset_path, chat_stub, preds_path, "--limit", "3")) == EXIT_OK
    assert len(read_predictions(preds_path)) == 3
    assert chat_stub.core.request_count == 3


def test_gazetteer_backed_run(tmp_path, records, dataset_path, chat_stub):
    _echo(chat_stub, records)
    gaz_path = tmp_path / "gazetteer.jsonl"
    make_fixture_gazetteer(records).save(gaz_path)
    preds_path = tmp_path / "preds.jsonl"
    code = main(
        [
            "run",
            "--approach",
            "geoaug-oracle",
            "--model",
            "m",
            "--dataset",
            dataset_path,
            "--gazetteer",
            str(gaz_path),
            "--llm-base",
            chat_stub.base_url,
            "--predictions",
            str(preds_path),
        ]
    )
    assert code == EXIT_OK
    assert all(p.covered for p in read_predictions(preds_path))


def test_config_file_presets_flags(capsys, tmp_path, records, dataset_path, chat_stub):
    _echo(chat_stub, records)
    config = {
        "approach": "direct",
        "model": "from-config",
        "dataset": dataset_path,
        "llm_base": chat_stub.base_url,
        "predictions": str(tmp_path / "p1.jsonl"),
        "limit": 1,
        "format": "csv",
        "sample": "all",  # not a run flag: a key for another subcommand passes through
    }
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(config))

    assert main(["run", "--config", str(config_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("Approach,Reasoner")
    assert chat_stub.core.requests[-1]["model"] == "from-config"


def test_explicit_flags_beat_config(capsys, tmp_path, records, dataset_path, chat_stub):
    _echo(chat_stub, records)
    config_path = tmp_path / "run.json"
    config_path.write_text(
        json.dumps(
            {
                "approach": "direct",
                "model": "from-config",
                "dataset": dataset_path,
                "llm_base": chat_stub.base_url,
                "predictions": str(tmp_path / "p1.jsonl"),
                "limit": 1,
            }
        )
    )
    code = main(
        [
            "run",
            "--config",
            str(config_path),
            "--model",
            "from-flag",
            "--predictions",
            str(tmp_path / "p2.jsonl"),
        ]
    )
    assert code == EXIT_OK
    assert chat_stub.core.requests[-1]["model"] == "from-flag"
    assert (tmp_path / "p2.jsonl").exists()
    assert not (tmp_path / "p1.jsonl").exists()


def test_unreadable_config_exits_1(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    assert main(["run", "--config", str(bad)]) == EXIT_USAGE
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == EXIT_USAGE
    binary = tmp_path / "binary.json"
    binary.write_bytes(b'{"model": "\xff"}')
    capsys.readouterr()
    assert main(["run", "--config", str(binary)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: cannot read config {binary}: 'utf-8' codec")
    huge = tmp_path / "huge.json"
    huge.write_text('{"retries": ' + "9" * 5000 + "}")  # past json's 4300-digit limit
    assert main(["run", "--config", str(huge)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: cannot read config {huge}: Exceeds")


def test_config_presets_do_not_leak_into_the_next_call(
    capsys, tmp_path, records, dataset_path, chat_stub
):
    _echo(chat_stub, records)
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({"limit": 1, "format": "csv", "model": "from-config"}))
    args = _run_args(dataset_path, chat_stub, tmp_path / "p.jsonl")
    assert main([*args, "--config", str(config_path)]) == EXIT_OK
    assert capsys.readouterr().out.startswith("Approach,Reasoner")
    assert chat_stub.core.request_count == 1

    assert main(args) == EXIT_OK
    assert not capsys.readouterr().out.startswith("Approach,Reasoner")
    assert chat_stub.core.request_count == 1 + len(records)
    assert chat_stub.core.requests[-1]["model"] == "test-m"


def test_run_defaults(capsys, tmp_path, monkeypatch, records, dataset_path, chat_stub):
    _echo(chat_stub, records)
    chat_stub.core.fail_next(1, status=503)  # the default --retries absorbs it
    monkeypatch.chdir(tmp_path)
    argv = ["run", "--approach", "direct", "--model", "m", "--dataset", dataset_path]
    assert main([*argv, "--llm-base", chat_stub.base_url]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[:2] == ["Approach", "Reasoner"]
    assert lines[2].startswith("direct")
    predictions = read_predictions(tmp_path / "predictions.jsonl")
    assert len(predictions) == len(records)
    assert all(p.covered for p in predictions)
    assert chat_stub.core.requests[-1]["system"] == system_text(PromptKind.DIRECT_BOX, True)


@pytest.mark.parametrize(
    "case", ["cache-dir-is-a-file", "cache-file-is-a-directory", "predictions-under-a-file"]
)
def test_unusable_path_exits_1(capsys, tmp_path, records, dataset_path, chat_stub, case):
    _echo(chat_stub, records)
    blocker = tmp_path / "blocker"
    extra = ["--cache-dir", str(blocker)]
    preds = tmp_path / "p.jsonl"
    if case == "cache-dir-is-a-file":
        blocker.write_text("")
    elif case == "cache-file-is-a-directory":
        (blocker / "llm_cache.jsonl").mkdir(parents=True)
    else:
        blocker.write_text("")
        extra, preds = [], blocker / "p.jsonl"
    assert main(_run_args(dataset_path, chat_stub, preds, *extra)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno ") and str(blocker) in err
    sent = len(records) if case == "predictions-under-a-file" else 0
    assert chat_stub.core.request_count == sent


@pytest.mark.parametrize(
    "preset, problem",
    [
        ({"retries": "x"}, 'retries must be an integer, got "x"'),
        ({"few_shot": "no"}, 'few_shot must be true or false, got "no"'),
        ({"format": "yaml"}, 'format must be one of text, markdown, csv, got "yaml"'),
        ({"limit": None}, "limit must be an integer, got null"),
    ],
    ids=["string-for-int", "string-for-switch", "not-a-choice", "null"],
)
def test_config_values_get_flag_checks(capsys, tmp_path, dataset_path, chat_stub, preset, problem):
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(preset))
    args = _run_args(dataset_path, chat_stub, tmp_path / "p.jsonl", "--config", str(config_path))
    assert main(args) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: config {config_path}: {problem}\n"
    assert chat_stub.core.request_count == 0


def test_few_shot_flag_controls_prompt(tmp_path, records, dataset_path, chat_stub):
    _echo(chat_stub, records)
    base = _run_args(dataset_path, chat_stub, tmp_path / "p.jsonl", "--limit", "1")
    assert main(base) == EXIT_OK
    few_shot_system = chat_stub.core.requests[-1]["system"]
    assert main([*base, "--no-few-shot"]) == EXIT_OK
    zero_shot_system = chat_stub.core.requests[-1]["system"]
    assert zero_shot_system != few_shot_system
    assert few_shot_system.startswith(zero_shot_system)


def test_eval_rescores_prediction_file(capsys, tmp_path, records, dataset_path, chat_stub):
    _echo(chat_stub, records)
    preds_path = tmp_path / "preds.jsonl"
    assert main(_run_args(dataset_path, chat_stub, preds_path)) == EXIT_OK
    capsys.readouterr()

    code = main(["eval", "--predictions", str(preds_path), "--dataset", dataset_path])
    assert code == EXIT_OK
    row = capsys.readouterr().out.splitlines()[2]
    assert row.startswith("direct")  # label derived from the predictions
    assert "100.0" in row

    code = main(
        [
            "eval",
            "--predictions",
            str(preds_path),
            "--dataset",
            dataset_path,
            "--label",
            "replay/x",
        ]
    )
    assert code == EXIT_OK
    assert capsys.readouterr().out.splitlines()[2].startswith("replay")


def test_eval_against_wrong_dataset_exits_2(tmp_path, records, dataset_path, chat_stub):
    _echo(chat_stub, records)
    preds_path = tmp_path / "preds.jsonl"
    assert main(_run_args(dataset_path, chat_stub, preds_path)) == EXIT_OK
    short_path = tmp_path / "short.jsonl"
    write_dataset(records[:5], short_path)
    code = main(["eval", "--predictions", str(preds_path), "--dataset", str(short_path)])
    assert code == EXIT_DATA


def test_analyze_with_an_unknown_id_exits_2(capsys, tmp_path, records, dataset_path, chat_stub):
    _echo(chat_stub, records)
    preds_path = tmp_path / "preds.jsonl"
    assert main(_run_args(dataset_path, chat_stub, preds_path)) == EXIT_OK
    short_path = tmp_path / "short.jsonl"
    write_dataset(records[:5], short_path)
    errors_path = tmp_path / "errors.json"
    capsys.readouterr()
    argv = ["analyze", "--predictions", str(preds_path), "--dataset", str(short_path)]
    assert main([*argv, "--out", str(errors_path)]) == EXIT_DATA
    unknown = records[5].record_id
    assert capsys.readouterr().err == f"data error: prediction for unknown record id {unknown!r}\n"
    assert not errors_path.exists()


def test_export_sft(capsys, tmp_path, dataset_path):
    out_path = tmp_path / "sft.jsonl"
    code = main(
        ["export-sft", "--dataset", dataset_path, "--approach", "direct", "--out", str(out_path)]
    )
    assert code == EXIT_OK
    assert "wrote 20 row(s)" in capsys.readouterr().out
    rows = [json.loads(line) for line in out_path.read_text().splitlines()]
    assert len(rows) == 20
    assert set(rows[0]) == {"system", "user", "assistant"}


def test_export_sft_sampling(tmp_path, dataset_path):
    out_path = tmp_path / "sft.jsonl"
    args = ["export-sft", "--dataset", dataset_path, "--approach", "direct", "--out", str(out_path)]
    assert main([*args, "--sample", "5", "--seed", "1"]) == EXIT_OK
    assert len(out_path.read_text().splitlines()) == 5
    assert main([*args, "--sample", "99"]) == EXIT_USAGE


def test_analyze_mixed_run(capsys, tmp_path, records, dataset_path, chat_stub):
    for description, reply in mixed_failure_script(records).items():
        chat_stub.script(description, reply)
    preds_path = tmp_path / "preds.jsonl"
    code = main(
        [
            "run",
            "--approach",
            "reasoning-oracle",
            "--model",
            "m",
            "--dataset",
            dataset_path,
            "--llm-base",
            chat_stub.base_url,
            "--predictions",
            str(preds_path),
        ]
    )
    assert code == EXIT_OK
    capsys.readouterr()

    errors_path = tmp_path / "errors.json"
    code = main(
        [
            "analyze",
            "--predictions",
            str(preds_path),
            "--dataset",
            dataset_path,
            "--out",
            str(errors_path),
        ]
    )
    assert code == EXIT_OK
    assert "Sign-flip suspects" in capsys.readouterr().out
    stored = json.loads(errors_path.read_text())
    assert stored["n_scored"] == MIXED_EXPECT["n_total"]
    for key in (
        "sign_flip_suspects",
        "coord_copy_suspects",
        "coord_copy_suspects_loose",
        "invalid_parse",
        "out_of_range_parse",
        "precision_gt_recall",
        "recall_gt_precision",
    ):
        assert stored[key] == MIXED_EXPECT[key], key


def test_report_merges_stored_metrics(capsys, tmp_path, records, dataset_path, chat_stub):
    _echo(chat_stub, records)
    r1 = tmp_path / "r1.json"
    assert (
        main(
            _run_args(dataset_path, chat_stub, tmp_path / "p1.jsonl", "--report-out", str(r1))
        )
        == EXIT_OK
    )
    r2 = tmp_path / "r2.json"
    assert (
        main(
            [
                "run",
                "--approach",
                "reasoning-oracle",
                "--model",
                "other-m",
                "--dataset",
                dataset_path,
                "--llm-base",
                chat_stub.base_url,
                "--predictions",
                str(tmp_path / "p2.jsonl"),
                "--report-out",
                str(r2),
            ]
        )
        == EXIT_OK
    )
    capsys.readouterr()

    assert main(["report", str(r1), str(r2)]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[2].startswith("direct")
    assert lines[3].startswith("reasoning-oracle")

    assert main(["report", str(r1), "--format", "markdown"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("| Approach |")


def test_report_without_inputs_exits_1():
    assert main(["report"]) == EXIT_USAGE


_STORED_REPORT = {
    "label": "direct/m",
    "n_total": 2,
    "n_covered": 1,
    "coverage_pct": 50.0,
    "mean_distance_km": 1.5,
    "area_precision": 0.5,
    "area_recall": 0.5,
    "area_f1": 0.5,
}


def test_report_bad_input_exits_2(capsys, tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_STORED_REPORT))
    assert main(["report", str(good)]) == EXIT_OK
    stored = json.dumps(_STORED_REPORT)
    for text in [
        "not json",
        # numbers no float holds: OverflowError in MetricsReport.from_record
        stored.replace("50.0", "9" * 400),
        stored.replace('"n_total": 2', '"n_total": 1e400'),
    ]:
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        capsys.readouterr()
        assert main(["report", str(bad)]) == EXIT_DATA, text
        assert capsys.readouterr().err.startswith(f"data error: cannot read metrics report {bad}: ")


def test_report_with_a_lone_surrogate_exits_2(capsys, tmp_path):
    stored = tmp_path / "r.json"
    stored.write_text(json.dumps({**_STORED_REPORT, "label": "direct/m\ud800"}))
    assert main(["report", str(stored)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"data error: cannot read metrics report {stored}: ")
    assert "surrogates not allowed" in err


_DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "reader", ["dataset", "predictions", "gazetteer", "cache", "config", "report"]
)
def test_a_deeply_nested_json_value_is_bad_input(
    capsys, caplog, tmp_path, records, dataset_path, chat_stub, reader
):
    """JSON nested 100 000 deep is a bad line or file to every reader, not a RecursionError."""
    _echo(chat_stub, records)
    bad = tmp_path / f"{reader}.jsonl"
    argv = _run_args(dataset_path, chat_stub, tmp_path / "p.jsonl")
    code = EXIT_OK
    if reader == "dataset":
        bad.write_text(_DEEP + "\n" + (tmp_path / "dataset.jsonl").read_text())
        argv = _run_args(str(bad), chat_stub, tmp_path / "p.jsonl")
        message = f"dataset {bad} line 1 skipped: JSON nested too deep"
    elif reader == "predictions":
        assert main(argv) == EXIT_OK
        bad.write_text((tmp_path / "p.jsonl").read_text().splitlines()[0] + "\n" + _DEEP + "\n")
        argv = ["eval", "--predictions", str(bad), "--dataset", dataset_path]
        code, message = EXIT_DATA, f"data error: predictions {bad} line 2: JSON nested too deep"
    elif reader == "gazetteer":
        make_fixture_gazetteer(records).save(bad)
        bad.write_text(_DEEP + "\n" + bad.read_text())
        argv[2] = "geoaug-oracle"
        argv += ["--gazetteer", str(bad)]
        message = f"gazetteer {bad} line 1 skipped: JSON nested too deep"
    elif reader == "cache":
        bad = tmp_path / "cache" / "llm_cache.jsonl"
        bad.parent.mkdir()
        bad.write_text(_DEEP + "\n")
        argv += ["--cache-dir", str(bad.parent)]
        message = f"skipping corrupt cache line 1 in {bad}"
    elif reader == "config":
        bad.write_text(_DEEP)
        argv = ["run", "--config", str(bad)]
        code, message = EXIT_USAGE, f"error: cannot read config {bad}: JSON nested too deep"
    else:
        bad.write_text(_DEEP)
        argv = ["report", str(bad)]
        code = EXIT_DATA
        message = f"data error: cannot read metrics report {bad}: JSON nested too deep"
    capsys.readouterr()
    caplog.clear()
    assert main(argv) == code
    if code == EXIT_OK:
        assert message in caplog.text
        assert len(read_predictions(tmp_path / "p.jsonl")) == len(records)
    else:
        assert capsys.readouterr().err.startswith(message)


def test_report_inputs_via_config(capsys, tmp_path, records, dataset_path, chat_stub):
    _echo(chat_stub, records)
    r1 = tmp_path / "r1.json"
    assert (
        main(
            _run_args(dataset_path, chat_stub, tmp_path / "p.jsonl", "--report-out", str(r1))
        )
        == EXIT_OK
    )
    capsys.readouterr()
    config_path = tmp_path / "report.json"
    config_path.write_text(json.dumps({"inputs": [str(r1)], "format": "csv"}))
    assert main(["report", "--config", str(config_path)]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[1].startswith("direct,")
