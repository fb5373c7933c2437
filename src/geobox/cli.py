"""Command-line harness around the pipeline.

Subcommands: run (execute an approach over a dataset), eval (rescore a
predictions file), export-sft (write supervised tuning rows), analyze
(error probes over a predictions file), report (render stored metric
reports). A JSON config file can preset any flag; explicit flags win.

Exit codes: 0 success, 1 usage/config error or an unwritable path, 2 data
error, 3 a run whose every record failed to reach its endpoint.
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
from .netutil import BAD_ROW, atomic_write_text, decode_json_line
from .pipeline import Approach, ExperimentConfig, RunDeps, run_experiment
from .reasoner import ChatClient
from .report import render_error_report, render_report

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_TRANSPORT = 3

_FORMATS = ("text", "markdown", "csv")

# The `run` flag that supplies each optional RunDeps field.
_DEP_FLAGS = {"store": "gazetteer", "geocoder": "geocoder_endpoint"}


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
    run.add_argument("--parallelism", type=int, default=1)
    run.add_argument("--retries", type=int, default=3, help="HTTP retries after the first attempt")
    run.add_argument("--backoff", type=float, default=0.5, help="base retry backoff in seconds")
    run.add_argument("--few-shot", action=argparse.BooleanOptionalAction, default=True)
    run.add_argument("--limit", type=int, help="run only the first N records")
    run.add_argument(
        "--predictions", default="predictions.jsonl", help="output predictions JSONL path"
    )
    run.add_argument("--report-out", help="write the metrics report as JSON here")
    run.add_argument("--format", choices=_FORMATS, default="text")

    ev = sub.add_parser("eval", help="rescore a predictions file against a dataset")
    ev.add_argument("--config", help="JSON file presetting any flag (flags win)")
    ev.add_argument("--predictions", help="predictions JSONL path")
    ev.add_argument("--dataset", help="dataset JSONL path")
    ev.add_argument("--label", help="report label (default: from predictions)")
    ev.add_argument("--report-out", help="write the metrics report as JSON here")
    ev.add_argument("--format", choices=_FORMATS, default="text")

    sft = sub.add_parser("export-sft", help="export supervised tuning rows")
    sft.add_argument("--config", help="JSON file presetting any flag (flags win)")
    sft.add_argument("--dataset", help="dataset JSONL path")
    sft.add_argument("--approach", choices=["direct", "geoaug-oracle"])
    sft.add_argument("--out", help="output JSONL path")
    sft.add_argument("--sample", type=int, help="subsample N records before export")
    sft.add_argument("--seed", type=int, default=0, help="subsample seed (default 0)")

    an = sub.add_parser("analyze", help="error probes over a predictions file")
    an.add_argument("--config", help="JSON file presetting any flag (flags win)")
    an.add_argument("--predictions", help="predictions JSONL path")
    an.add_argument("--dataset", help="dataset JSONL path")
    an.add_argument("--out", help="write the error report as JSON here")
    an.add_argument("--format", choices=_FORMATS, default="text")

    rep = sub.add_parser("report", help="render stored metric reports as one table")
    rep.add_argument("--config", help="JSON file presetting any flag (flags win)")
    rep.add_argument("inputs", nargs="*", help="metric report JSON files (from --report-out)")
    rep.add_argument("--format", choices=_FORMATS, default="text")
    return parser, sub.choices


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


# Options geobox sends, hashes or prints. Python decodes argv bytes that are not
# UTF-8 to lone surrogates, which none of those can encode; a path option is left
# to the OS, which takes such bytes back as they were.
_TEXT_OPTIONS = ("model", "recaller_model", "label")


def _parse_args(argv: Sequence[str] | None) -> argparse.Namespace:
    """Parse ``argv``, with the ``--config`` file's values as flag defaults.

    Explicit flags win over the config, which wins over built-in
    defaults. A config key naming a flag of the subcommand must hold a
    value that flag could give; other keys are ignored, so one file can
    serve several subcommands. A ``_TEXT_OPTIONS`` value must encode as
    UTF-8.
    """
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = decode_json_line(fh.read())
        except (OSError, *BAD_ROW) as exc:
            raise UsageError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise UsageError(f"config {args.config} must hold a JSON object")
        command = commands[args.command]
        presets = {}
        for action in command._actions:
            if action.dest in loaded and action.dest not in ("help", "config"):
                problem = _config_value_error(action, loaded[action.dest])
                if problem is not None:
                    raise UsageError(f"config {args.config}: {action.dest} {problem}")
                presets[action.dest] = loaded[action.dest]
        command.set_defaults(**presets)
        args = parser.parse_args(argv)
    for name in _TEXT_OPTIONS:
        value = getattr(args, name, None) or ""
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise UsageError(f"--{name.replace('_', '-')} is not UTF-8 text: {value!r}") from None
    return args


def _require(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name) in (None, ""):
            raise UsageError(f"missing required option --{name.replace('_', '-')}")


def _cache_path(args: argparse.Namespace, filename: str) -> str | None:
    if not args.cache_dir:
        return None
    os.makedirs(args.cache_dir, exist_ok=True)
    return os.path.join(args.cache_dir, filename)


def _write_report(path: str | None, report) -> None:
    """Write a report's record as indented JSON when ``path`` is given."""
    if path:
        atomic_write_text(path, json.dumps(report.to_record(), indent=2) + "\n")


def _cmd_run(args: argparse.Namespace) -> int:
    _require(args, "approach", "model", "dataset")
    approach = Approach(args.approach)
    records, load_report = load_dataset(args.dataset)
    if load_report.n_skipped:
        logger.warning("dataset: %d line(s) skipped", load_report.n_skipped)
    if args.limit is not None:
        if args.limit < 1:
            raise UsageError("--limit must be >= 1")
        records = records[: args.limit]
    for dep in approach.required_deps:
        flag = _DEP_FLAGS.get(dep)
        if flag is not None and not getattr(args, flag):
            raise UsageError(f"{approach.value} requires --{flag.replace('_', '-')}")

    store = None
    if args.gazetteer:
        try:
            store = GazetteerStore.load(args.gazetteer)
        except (OSError, UnicodeDecodeError) as exc:
            raise DataError(f"cannot read gazetteer {args.gazetteer}: {exc}") from exc
    geocoder = None
    try:
        if args.geocoder_endpoint:
            geocoder = GeocoderClient(
                args.geocoder_endpoint,
                cache_path=_cache_path(args, "geocoder_cache.jsonl"),
                max_retries=args.retries,
                backoff_s=args.backoff,
            )
        chat = ChatClient(
            base_url=args.llm_base,
            cache_path=_cache_path(args, "llm_cache.jsonl"),
            max_retries=args.retries,
            backoff_s=args.backoff,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    config = ExperimentConfig(
        approach=approach,
        model=args.model,
        recaller_model=args.recaller_model,
        few_shot=args.few_shot,
    )
    deps = RunDeps(chat=chat, store=store, geocoder=geocoder)
    try:
        predictions, report = run_experiment(config, records, deps, parallelism=args.parallelism)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    finally:
        for client in (chat, geocoder):
            if client is not None:
                client.close()

    write_predictions(predictions, args.predictions)
    _write_report(args.report_out, report)
    print(render_report([(report.label, report)], fmt=args.format))
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


def _cmd_eval(args: argparse.Namespace) -> int:
    _require(args, "predictions", "dataset")
    predictions = read_predictions(args.predictions)
    records, _ = load_dataset(args.dataset)
    label = args.label or _derive_label(predictions)
    try:
        report = aggregate(predictions, golds_by_id(records), label=label)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    _write_report(args.report_out, report)
    print(render_report([(label, report)], fmt=args.format))
    return EXIT_OK


def _cmd_export_sft(args: argparse.Namespace) -> int:
    _require(args, "dataset", "approach", "out")
    records, _ = load_dataset(args.dataset)
    if args.sample is not None:
        try:
            records = sample_train_subset(records, args.sample, seed=args.seed)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    stats = export_finetune_jsonl(records, args.approach, args.out)
    print(f"wrote {stats.written} row(s) to {args.out} ({stats.skipped} skipped)")
    return EXIT_OK


def _cmd_analyze(args: argparse.Namespace) -> int:
    _require(args, "predictions", "dataset")
    predictions = read_predictions(args.predictions)
    records, _ = load_dataset(args.dataset)
    try:
        errors = analyze_errors(predictions, golds_by_id(records))
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    _write_report(args.out, errors)
    print(render_error_report(errors, fmt=args.format))
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    if not args.inputs:
        raise UsageError("report needs at least one metrics JSON file")
    entries = []
    for path in args.inputs:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                report = MetricsReport.from_record(decode_json_line(fh.read()))
        except (OSError, *BAD_ROW) as exc:
            raise DataError(f"cannot read metrics report {path}: {exc}") from exc
        entries.append((report.label, report))
    print(render_report(entries, fmt=args.format))
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
    try:
        args = _parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:  # e.g. a cache or output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
