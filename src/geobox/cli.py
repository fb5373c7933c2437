"""Command-line harness around the pipeline.

Subcommands: run (execute an approach over a dataset), eval (rescore a
predictions file), export-sft (write supervised tuning rows), analyze
(error probes over a predictions file), report (render stored metric
reports). A JSON config file can preset any flag; explicit flags win.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 transport
failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from typing import Sequence

from .analysis import analyze_errors
from .dataset import (
    DataError,
    export_finetune_jsonl,
    golds_by_id,
    load_dataset,
    read_predictions,
    sample_train_subset,
    write_predictions,
)
from .gazetteer import GazetteerStore, GeocoderClient
from .metrics import MetricsReport, aggregate
from .netutil import TransportError, atomic_write_text
from .pipeline import Approach, ExperimentConfig, RunDeps, run_experiment
from .reasoner import ChatClient
from .report import render_error_report, render_report

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_TRANSPORT = 3

_FORMATS = ("text", "markdown", "csv")


class UsageError(Exception):
    """Bad flags or configuration; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; this harness reserves 2
    # for data errors, so usage failures are rethrown and mapped to 1.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The top-level parser, and the parser of each subcommand by name."""
    parser = _Parser(prog="geobox", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one approach over a dataset")
    run.add_argument("--config", help="JSON file presetting any flag (flags win)")
    run.add_argument("--approach", choices=[a.value for a in Approach])
    run.add_argument("--model", help="reasoner model identifier")
    run.add_argument("--recaller-model", help="recaller model (end-to-end only)")
    run.add_argument("--dataset", help="dataset JSONL path")
    run.add_argument("--gazetteer", help="gazetteer JSONL path (oracle store)")
    run.add_argument("--geocoder-endpoint", help="remote geocoder URL")
    run.add_argument("--llm-base", help="chat API base URL (default: $LLM_API_BASE)")
    run.add_argument("--cache-dir", help="directory for response caches")
    run.add_argument("--parallelism", type=int)
    run.add_argument("--retries", type=int, help="HTTP retries after the first attempt")
    run.add_argument("--backoff", type=float, help="base retry backoff in seconds")
    run.add_argument("--few-shot", action=argparse.BooleanOptionalAction, default=None)
    run.add_argument("--limit", type=int, help="run only the first N records")
    run.add_argument("--predictions", help="output predictions JSONL path")
    run.add_argument("--report-out", help="write the metrics report as JSON here")
    run.add_argument("--format", choices=_FORMATS)

    ev = sub.add_parser("eval", help="rescore a predictions file against a dataset")
    ev.add_argument("--config", help="JSON file presetting any flag (flags win)")
    ev.add_argument("--predictions", help="predictions JSONL path")
    ev.add_argument("--dataset", help="dataset JSONL path")
    ev.add_argument("--label", help="report label (default: from predictions)")
    ev.add_argument("--report-out", help="write the metrics report as JSON here")
    ev.add_argument("--format", choices=_FORMATS)

    sft = sub.add_parser("export-sft", help="export supervised tuning rows")
    sft.add_argument("--config", help="JSON file presetting any flag (flags win)")
    sft.add_argument("--dataset", help="dataset JSONL path")
    sft.add_argument("--approach", choices=["direct", "geoaug-oracle"])
    sft.add_argument("--out", help="output JSONL path")
    sft.add_argument("--sample", type=int, help="subsample N records before export")
    sft.add_argument("--seed", type=int, help="subsample seed (default 0)")

    an = sub.add_parser("analyze", help="error probes over a predictions file")
    an.add_argument("--config", help="JSON file presetting any flag (flags win)")
    an.add_argument("--predictions", help="predictions JSONL path")
    an.add_argument("--dataset", help="dataset JSONL path")
    an.add_argument("--out", help="write the error report as JSON here")
    an.add_argument("--format", choices=_FORMATS)

    rep = sub.add_parser("report", help="render stored metric reports as one table")
    rep.add_argument("--config", help="JSON file presetting any flag (flags win)")
    rep.add_argument("inputs", nargs="*", help="metric report JSON files (from --report-out)")
    rep.add_argument("--format", choices=_FORMATS)
    return parser, sub.choices


_DEFAULTS = {
    "run": {
        "parallelism": 1,
        "retries": 3,
        "backoff": 0.5,
        "few_shot": True,
        "predictions": "predictions.jsonl",
        "format": "text",
    },
    "eval": {"format": "text"},
    "export-sft": {"seed": 0},
    "analyze": {"format": "text"},
    "report": {"format": "text"},
}


def _config_value_error(action: argparse.Action, value) -> str | None:
    """Why a config-file value could not have come from its flag, or None."""
    if isinstance(action, argparse.BooleanOptionalAction):
        ok, wanted = isinstance(value, bool), "true or false"
    elif action.nargs == "*":
        ok = isinstance(value, list) and all(isinstance(v, str) for v in value)
        wanted = "a list of strings"
    elif action.type is int:
        ok, wanted = isinstance(value, int) and not isinstance(value, bool), "an integer"
    elif action.type is float:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        wanted = "a number"
    else:
        ok, wanted = isinstance(value, str), "a string"
    if not ok:
        return f"must be {wanted}, got {json.dumps(value)}"
    if action.choices is not None and value not in action.choices:
        return f"must be one of {', '.join(action.choices)}, got {json.dumps(value)}"
    return None


def _merge_config(args: argparse.Namespace, command: _Parser) -> dict:
    """Layer defaults, config file, and explicit flags (strongest last).

    A config key naming a flag of ``command`` must hold a value that flag
    could give; other keys pass through, so one file can serve several
    subcommands.
    """
    merged = dict(_DEFAULTS.get(args.command, {}))
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {config_path}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise UsageError(f"config {config_path} must hold a JSON object")
        for action in command._actions:
            if action.dest in loaded and action.dest in vars(args):
                problem = _config_value_error(action, loaded[action.dest])
                if problem is not None:
                    raise UsageError(f"config {config_path}: {action.dest} {problem}")
        merged.update(loaded)
    for key, value in vars(args).items():
        if key in ("command", "config"):
            continue
        if value is not None and value != []:
            merged[key] = value
    return merged


def _require(options: dict, *names: str) -> None:
    for name in names:
        if options.get(name) in (None, ""):
            raise UsageError(f"missing required option --{name.replace('_', '-')}")


def _cache_path(options: dict, filename: str) -> str | None:
    cache_dir = options.get("cache_dir")
    if not cache_dir:
        return None
    os.makedirs(cache_dir, exist_ok=True)
    return os.path.join(cache_dir, filename)


def _cmd_run(options: dict) -> int:
    _require(options, "approach", "model", "dataset")
    approach = Approach(options["approach"])
    records, load_report = load_dataset(options["dataset"])
    if load_report.n_skipped:
        logger.warning("dataset: %d line(s) skipped", load_report.n_skipped)
    limit = options.get("limit")
    if limit is not None:
        if limit < 1:
            raise UsageError("--limit must be >= 1")
        records = records[:limit]

    store = None
    if options.get("gazetteer"):
        try:
            store = GazetteerStore.load(options["gazetteer"])
        except (OSError, UnicodeDecodeError) as exc:
            raise DataError(f"cannot read gazetteer {options['gazetteer']}: {exc}") from exc
    geocoder = None
    try:
        if options.get("geocoder_endpoint"):
            geocoder = GeocoderClient(
                options["geocoder_endpoint"],
                cache_path=_cache_path(options, "geocoder_cache.jsonl"),
                max_retries=options["retries"],
                backoff_s=options["backoff"],
            )
        chat = ChatClient(
            base_url=options.get("llm_base"),
            cache_path=_cache_path(options, "llm_cache.jsonl"),
            max_retries=options["retries"],
            backoff_s=options["backoff"],
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    config = ExperimentConfig(
        approach=approach,
        model=options["model"],
        recaller_model=options.get("recaller_model"),
        few_shot=options["few_shot"],
    )
    deps = RunDeps(chat=chat, store=store, geocoder=geocoder)
    try:
        predictions, report = run_experiment(
            config, records, deps, parallelism=options["parallelism"]
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    finally:
        for client in (chat, geocoder):
            if client is not None:
                client.close()

    write_predictions(predictions, options["predictions"])
    if options.get("report_out"):
        atomic_write_text(
            options["report_out"], json.dumps(report.to_record(), indent=2) + "\n"
        )
    print(render_report([(report.label, report)], fmt=options["format"]))
    if predictions and all("transport_error" in p.flags for p in predictions):
        # outputs above are still written; the status just says the run was noise
        print("transport error: every record failed to reach the endpoint", file=sys.stderr)
        return EXIT_TRANSPORT
    return EXIT_OK


def _derive_label(predictions) -> str:
    for pred in predictions:
        if pred.approach or pred.model:
            return f"{pred.approach}/{pred.model}"
    return "eval"


def _cmd_eval(options: dict) -> int:
    _require(options, "predictions", "dataset")
    predictions = read_predictions(options["predictions"])
    records, _ = load_dataset(options["dataset"])
    label = options.get("label") or _derive_label(predictions)
    try:
        report = aggregate(predictions, golds_by_id(records), label=label)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    if options.get("report_out"):
        atomic_write_text(
            options["report_out"], json.dumps(report.to_record(), indent=2) + "\n"
        )
    print(render_report([(label, report)], fmt=options["format"]))
    return EXIT_OK


def _cmd_export_sft(options: dict) -> int:
    _require(options, "dataset", "approach", "out")
    records, _ = load_dataset(options["dataset"])
    sample = options.get("sample")
    if sample is not None:
        try:
            records = sample_train_subset(records, sample, seed=options["seed"])
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    stats = export_finetune_jsonl(records, options["approach"], options["out"])
    print(f"wrote {stats.written} row(s) to {options['out']} ({stats.skipped} skipped)")
    return EXIT_OK


def _cmd_analyze(options: dict) -> int:
    _require(options, "predictions", "dataset")
    predictions = read_predictions(options["predictions"])
    records, _ = load_dataset(options["dataset"])
    try:
        errors = analyze_errors(predictions, golds_by_id(records))
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    if options.get("out"):
        atomic_write_text(options["out"], json.dumps(errors.to_record(), indent=2) + "\n")
    print(render_error_report(errors, fmt=options["format"]))
    return EXIT_OK


def _cmd_report(options: dict) -> int:
    inputs = options.get("inputs") or []
    if not inputs:
        raise UsageError("report needs at least one metrics JSON file")
    entries = []
    for path in inputs:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                record = json.load(fh)
            report = MetricsReport.from_record(record)
        except (OSError, json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
            raise DataError(f"cannot read metrics report {path}: {exc}") from exc
        entries.append((report.label, report))
    print(render_report(entries, fmt=options["format"]))
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "eval": _cmd_eval,
    "export-sft": _cmd_export_sft,
    "analyze": _cmd_analyze,
    "report": _cmd_report,
}


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(argv)
        options = _merge_config(args, commands[args.command])
        return _COMMANDS[args.command](options)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TransportError as exc:
        print(f"transport error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT


if __name__ == "__main__":
    sys.exit(main())
