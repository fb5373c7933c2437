"""JSON input and output: the one decoder, the JSONL reader, the atomic file writers.

The bottom layer: it imports nothing else from geobox, so the geometry,
scoring and data modules read and write files without the HTTP client.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import re
from typing import IO, Any, Callable, Iterable, Iterator

_raw_decode = json.JSONDecoder().raw_decode
# ``json.dumps(x, ensure_ascii=False)`` builds this same encoder on every call.
_encode_line = json.JSONEncoder(ensure_ascii=False).encode


@contextlib.contextmanager
def gc_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector; restore its previous state on exit.

    Decoded JSON rows and the values built from them hold no reference
    cycles, so nothing waits on the collector while it is off; what is
    saved is its repeated passes over a heap that grows with every line.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class DataError(RuntimeError):
    """The input data is unusable (not a transient or protocol problem)."""


# A bad row of JSON input to every reader: bad UTF-8/JSON, wrong shape, float overflow.
BAD_ROW = (ValueError, KeyError, TypeError, OverflowError)

_REQUIRED: Any = object()


def json_text(value: Any, field: str, default: Any = _REQUIRED) -> Any:
    """A JSON text field: a string as is, a number as its digits, ``null`` as ``default``.

    Raises ``TypeError`` naming ``field`` for ``null`` with no default, a
    boolean, a list or an object, which ``str()`` would turn into a repr.
    """
    if isinstance(value, str):
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return str(value)
    if value is None and default is not _REQUIRED:
        return default
    raise TypeError(f"{field} must be text, got {type(value).__name__}")


def json_list(value: Iterable, field: str) -> Iterable:
    """``value``, unless a string or object, which would iterate as characters or keys."""
    if isinstance(value, (str, dict)):
        raise TypeError(f"{field} must be a list, got {type(value).__name__}")
    return value


# `"\\" in line` is answered by memchr for most lines; this pattern then finds
# "\\u" faster than `in` does.
_U_ESCAPE = re.compile(r"\\u")


def decode_json_line(line: str) -> Any:
    """``json.loads(line)``, with the same value and the same errors, but cheaper.

    ``raw_decode`` skips ``json.loads``'s per-call checks. Anything it
    cannot take whole (an error, trailing characters, a BOM, leading
    whitespace) goes through ``json.loads``, so errors keep its messages.
    Two errors differ: nesting too deep for the decoder is a
    ``ValueError`` here, where ``json.loads`` raises ``RecursionError``;
    and a value holding a lone surrogate raises ``UnicodeEncodeError``, a
    ``ValueError``, since UTF-8 cannot encode it, so it could be neither
    cached nor written. Only a line holding ``\\u`` is checked: text
    decoded strictly from UTF-8, as every reader here does, can hold a
    lone surrogate no other way.
    """
    try:
        try:
            value, end = _raw_decode(line)
        except ValueError:
            end = -1
        if end != len(line):
            value = json.loads(line)
    except RecursionError as exc:
        raise ValueError(f"JSON nested too deep: {exc}") from None
    if "\\" in line and _U_ESCAPE.search(line):
        _refuse_lone_surrogates(value)
    return value


def _refuse_lone_surrogates(value: Any) -> None:
    """Raise ``UnicodeEncodeError`` if ``value`` holds a lone surrogate."""
    _encode_line(value).encode("utf-8")


def read_jsonl(path: str | os.PathLike, what: str, build: Callable, bad: Callable) -> list:
    """``build(value)`` for each non-blank line of a UTF-8 JSONL file, in order, GC paused.

    A line (numbered from 1) whose ``decode_json_line`` or ``build``
    raises a ``BAD_ROW`` goes to ``bad(line number, error)`` instead; it
    may raise. A file that cannot be opened or is not UTF-8 raises
    ``DataError("cannot read <what> <path>: ...")``.
    """
    rows: list = []
    try:
        with open(path, "r", encoding="utf-8") as fh, gc_paused():
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if line:
                    try:
                        rows.append(build(decode_json_line(line)))
                    except BAD_ROW as exc:
                        bad(line_no, exc)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc
    return rows


def _fsync_dir(directory: str) -> None:
    """fsync ``directory``, so a file created or renamed in it keeps its name after a crash."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


@contextlib.contextmanager
def _atomic_file(path: str | os.PathLike) -> Iterator[IO[str]]:
    """Open a UTF-8 temp sibling of ``path``; on clean exit, fsync it and rename it over ``path``.

    Each call writes its own uniquely named temp file, so concurrent
    writers of one path never share one; the temp file is removed if the
    write fails, and the old file is left as it was. After the rename the
    directory is fsynced too. A killed writer's temp file stays: no later
    write sweeps ``<path>.tmp.*``, since one may belong to a live writer.
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    # Not tempfile.mkstemp: its 0600 mode would outlive the rename.
    tmp = f"{path}.tmp.{os.urandom(8).hex()}"
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    _fsync_dir(directory)  # the rename itself survives a crash only once this returns


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    """Write a file via a temp sibling + rename, so readers never see a torn file."""
    with _atomic_file(path) as fh:
        fh.write(text)


def atomic_write_jsonl(path: str | os.PathLike, rows: Iterable[Any]) -> None:
    """Write one JSON line per row, atomically: every line or the old file.

    Rows are encoded and written one at a time, so the write holds one
    line in memory, not the file. Each line is
    ``json.dumps(row, ensure_ascii=False)``.
    """
    with _atomic_file(path) as fh:
        for row in rows:
            fh.write(_encode_line(row) + "\n")
