import ast
import errno
import json
import os
import pathlib
import socket
import stat
import subprocess
import sys
import threading
import time
from contextlib import closing

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import geobox
from geobox import netutil
from geobox.gazetteer import GeocoderClient
from geobox.jsonio import atomic_write_jsonl, atomic_write_text
from geobox.netutil import JsonlCache, ServiceClient, TransportError, request_json
from geobox.reasoner import ChatClient, ChatRequest


def test_put_after_torn_tail_starts_a_new_line(tmp_path):
    path = tmp_path / "cache.jsonl"
    with closing(JsonlCache(path)) as cache:
        cache.put("a", 1)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"key": "b", "va')  # a writer killed mid-line
    cache = JsonlCache(path)
    cache.put("c", 3)
    cache.put("d", 4)
    cache.close()
    reloaded = JsonlCache(path)
    assert (reloaded.get("a"), reloaded.get("c"), reloaded.get("d")) == (1, 3, 4)
    assert reloaded.get("b") is None


def test_line_torn_inside_a_utf8_character_is_skipped(tmp_path, caplog):
    path = tmp_path / "cache.jsonl"
    with closing(JsonlCache(path)) as cache:
        cache.put("a", "São Paulo")
    torn = '{"key": "b", "value": "S\u00e3o'.encode("utf-8")
    with open(path, "ab") as fh:
        fh.write(torn[: torn.index(b"\xc3") + 1])  # cut after the first byte of "ã"
    cache = JsonlCache(path)
    assert "skipping corrupt cache line 2" in caplog.text
    assert (cache.get("a"), cache.get("b")) == ("São Paulo", None)
    cache.put("c", 3)
    cache.close()
    assert path.read_bytes().endswith(b'\xc3\n{"key": "c", "value": 3}\n')
    reloaded = JsonlCache(path)
    assert (reloaded.get("a"), reloaded.get("b"), reloaded.get("c")) == ("São Paulo", None, 3)


@pytest.mark.parametrize(
    "line",
    ['{"key": "b", "value": ' + "9" * 5000 + "}", '{"key": ["b"], "value": 2}'],
    ids=["huge-int", "unhashable-key"],
)
def test_undecodable_line_is_skipped(tmp_path, caplog, line):
    path = tmp_path / "cache.jsonl"
    path.write_text(f'{{"key": "a", "value": 1}}\n{line}\n{{"key": "c", "value": 3}}\n')
    cache = JsonlCache(path)
    assert (cache.get("a"), cache.get("c")) == (1, 3)
    assert [r.getMessage() for r in caplog.records if "skipping" in r.getMessage()] == [
        f"skipping corrupt cache line 2 in {path}"
    ]
    before = path.read_bytes()
    cache.put("d", 4)
    cache.close()
    assert path.read_bytes() == before + b'{"key": "d", "value": 4}\n'
    assert JsonlCache(path).get("d") == 4


def test_cache_line_with_a_lone_surrogate_is_skipped(tmp_path, caplog):
    path = tmp_path / "cache.jsonl"
    path.write_text('{"key": "a", "value": "\\ud800"}\n{"key": "b", "value": "\\ud83d\\ude00"}\n')
    cache = JsonlCache(path)
    assert (cache.get("a"), cache.get("b")) == (None, "\U0001f600")  # a pair is one character
    assert "skipping corrupt cache line 1" in caplog.text


def test_memory_only_cache_encodes_no_line():
    value = object()  # not JSON: encoding a line for it would raise TypeError
    cache = JsonlCache()
    cache.put("k", value)
    assert cache.get("k") is value


_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(st.characters(exclude_categories=["Cs"])),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=5), children, max_size=4),
    max_leaves=12,
)


@settings(deadline=None)  # each example fsyncs a file; its time is the disk's, not the code's
@given(st.lists(_json_values, max_size=6))
@example([])
@example([{"name": "S\u00e3o Paulo \u2028\x00\x1f", "v": [-0.0, float("nan"), float("inf")]}])
@example([-0.0, float("-inf"), "\ud7ff\ue000\U0010ffff", [[{}]], {"": [None]}])
def test_atomic_write_jsonl_writes_json_dumps_lines(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("jsonl") / "out.jsonl"
    atomic_write_jsonl(path, iter(rows))
    want = "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows)
    assert path.read_bytes() == want.encode("utf-8")


def test_failed_jsonl_write_keeps_the_old_file(tmp_path):
    path = tmp_path / "out.jsonl"
    atomic_write_jsonl(path, [{"a": 1}, {"b": "\u00e9"}])
    before = path.read_bytes()

    def rows():
        yield {"c": 3}
        yield {"d": 4}
        raise RuntimeError("row source failed")

    with pytest.raises(RuntimeError, match="row source failed"):
        atomic_write_jsonl(path, rows())
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["out.jsonl"]


def test_concurrent_atomic_writes_to_one_path(tmp_path):
    path = tmp_path / "out.txt"
    texts = [f"writer {n}\n" * 50 for n in range(4)]
    failures = []

    def write_many(text):
        try:
            for _ in range(300):
                atomic_write_text(path, text)
        except Exception as exc:  # collected so the main thread can assert on it
            failures.append(exc)

    threads = [threading.Thread(target=write_many, args=(text,)) for text in texts]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert path.read_text() in texts
    assert os.listdir(tmp_path) == ["out.txt"]


def test_failed_atomic_write_leaves_no_temp_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    with pytest.raises(UnicodeEncodeError):
        atomic_write_text(path, "\ud800")  # a lone surrogate cannot be encoded
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def _recording_fsync(monkeypatch):
    """Patch os.fsync to log ``(is a directory, inode)`` per call, then fsync as usual."""
    real_fsync, calls = os.fsync, []

    def fsync(fd):
        st = os.fstat(fd)
        calls.append((stat.S_ISDIR(st.st_mode), st.st_ino))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    return calls


def test_atomic_write_fsyncs_the_directory_after_the_rename(tmp_path, monkeypatch):
    calls = _recording_fsync(monkeypatch)
    atomic_write_text(tmp_path / "out.txt", "new\n")
    assert [is_dir for is_dir, _ in calls] == [False, True]
    assert calls[1][1] == os.stat(tmp_path).st_ino


def test_cache_fsyncs_its_directory_once_when_it_creates_the_file(tmp_path, monkeypatch):
    calls = _recording_fsync(monkeypatch)
    path = tmp_path / "cache.jsonl"
    with closing(JsonlCache(path)) as cache:
        cache.put("a", 1)
        cache.put("b", 2)
    with closing(JsonlCache(path)) as cache:
        cache.put("c", 3)  # the file exists: only the line is fsynced
    assert [is_dir for is_dir, _ in calls] == [True, False, False, False]
    assert calls[0][1] == os.stat(tmp_path).st_ino


@pytest.mark.parametrize("setting", [{"max_retries": -1}, {"backoff_s": -0.5}])
def test_negative_retry_settings_are_rejected(setting):
    with pytest.raises(ValueError):
        ServiceClient("http://127.0.0.1:9", "test endpoint", **setting)


def test_a_bare_service_client_builds_requests_and_closes():
    assert ServiceClient.TIMEOUT_S == GeocoderClient.TIMEOUT_S == 30.0
    assert ChatClient.TIMEOUT_S == 120.0
    with socket.create_server(("127.0.0.1", 0)) as server:
        port = server.getsockname()[1]
    # Nothing listens on the port now, so the one attempt is refused.
    client = ServiceClient(f"http://127.0.0.1:{port}/x", "test endpoint", max_retries=0)
    with pytest.raises(TransportError, match="still failing after 0 retries"):
        request_json(client, "GET")
    client.close()


def test_a_failed_directory_fsync_closes_the_file_and_the_next_put_reopens_it(
    tmp_path, monkeypatch
):
    path = tmp_path / "cache.jsonl"
    opened = []
    fsync_dir = netutil._fsync_dir
    failures = [OSError(errno.EIO, "directory fsync failed")]

    def spy_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    def fsync_dir_failing_once(directory):
        if failures:
            raise failures.pop()
        fsync_dir(directory)

    monkeypatch.setattr(netutil, "open", spy_open, raising=False)
    monkeypatch.setattr(netutil, "_fsync_dir", fsync_dir_failing_once)
    cache = JsonlCache(path)
    with pytest.raises(OSError, match="directory fsync failed"):
        cache.put("a", 1)
    assert len(opened) == 1 and opened[0].closed
    assert cache.get("a") is None
    cache.put("a", 1)  # the file is still empty: its directory is fsynced again
    assert len(opened) == 2 and not opened[1].closed
    cache.close()
    assert opened[1].closed
    assert path.read_text(encoding="utf-8") == '{"key": "a", "value": 1}\n'


def test_gets_during_concurrent_puts_lose_no_key(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = JsonlCache(path)
    writers_done = threading.Event()
    failures = []

    def write(n):
        for i in range(25):
            cache.put(f"{n}-{i}", [n, i])

    def read():
        try:
            while not writers_done.is_set():
                for i in range(25):
                    assert cache.get(f"0-{i}") in (None, [0, i])
                time.sleep(0.001)  # let the writers have the interpreter lock
        except AssertionError as exc:
            failures.append(exc)

    readers = [threading.Thread(target=read) for _ in range(2)]
    writers = [threading.Thread(target=write, args=(n,)) for n in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in readers + writers:
            thread.start()
        for thread in writers:
            thread.join(timeout=120)
    finally:
        writers_done.set()
        sys.setswitchinterval(interval)
    for thread in readers:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in readers + writers)
    assert failures == []
    cache.close()
    reloaded = JsonlCache(path)
    assert all(reloaded.get(f"{n}-{i}") == [n, i] for n in range(8) for i in range(25))


@pytest.fixture
def opened(monkeypatch):
    """The mode of every ``open`` call made by ``geobox.netutil``."""
    modes = []
    real_open = open

    def counting_open(file, mode="r", *args, **kwargs):
        modes.append(mode)
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(netutil, "open", counting_open, raising=False)
    return modes


def test_puts_share_one_append_handle_until_closed(tmp_path, opened):
    path = tmp_path / "new-dir" / "cache.jsonl"  # the directory is made on the first put
    cache = JsonlCache(path)
    for n in range(5):
        cache.put(f"k{n}", n)
    assert opened == ["ab"]
    cache.close()
    cache.put("k5", 5)
    cache.close()
    cache.close()  # closing twice is harmless
    assert opened == ["ab", "ab"]
    assert path.read_bytes() == b"".join(
        (json.dumps({"key": f"k{n}", "value": n}) + "\n").encode() for n in range(6)
    )
    reader = JsonlCache(path)
    assert [reader.get(f"k{n}") for n in range(6)] == list(range(6))
    reader.close()
    assert opened == ["ab", "ab", "rb"]  # a cache that is only read opens no append handle


def test_closed_client_reopens_its_cache_on_the_next_put(tmp_path, chat_stub, opened):
    client = ChatClient(chat_stub.base_url, cache_path=tmp_path / "llm_cache.jsonl")
    client.complete(ChatRequest(model="m", system="s", user="first"))
    client.complete(ChatRequest(model="m", system="s", user="second"))
    client.close()
    client.complete(ChatRequest(model="m", system="s", user="third"))
    client.close()
    assert opened == ["ab", "ab"]


class _FillingDisk:
    """A file whose second write stores 10 bytes, then fails as a full disk does."""

    def __init__(self, file):
        self._file = file
        self._writes = 0

    def write(self, data):
        self._writes += 1
        if self._writes == 2:
            self._file.write(data[:10])
            raise OSError(errno.ENOSPC, "No space left on device")
        return self._file.write(data)

    def fileno(self):
        return self._file.fileno()

    def close(self):
        self._file.close()


@pytest.mark.parametrize("failure", ["write", "fsync"])
def test_failed_put_leaves_the_next_put_on_a_new_line(tmp_path, monkeypatch, failure):
    path = tmp_path / "cache.jsonl"
    if failure == "write":

        def filling_open(*args, **kwargs):
            return _FillingDisk(open(*args, **kwargs))

        monkeypatch.setattr(netutil, "open", filling_open, raising=False)
    else:
        real_fsync, fsyncs = os.fsync, []

        def fsync(fd):
            if not stat.S_ISREG(os.fstat(fd).st_mode):
                return real_fsync(fd)  # the directory's, when the file is created
            fsyncs.append(fd)
            if len(fsyncs) == 2:
                raise OSError(errno.EIO, "Input/output error")
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
    cache = JsonlCache(path)
    cache.put("a", 1)
    with pytest.raises(OSError):
        cache.put("b", 2)
    assert cache.get("b") is None  # a put that failed stores nothing
    cache.put("c", 3)
    cache.close()
    monkeypatch.undo()
    lines = path.read_bytes().split(b"\n")
    assert lines[0] == b'{"key": "a", "value": 1}'
    assert lines[-2:] == [b'{"key": "c", "value": 3}', b""]
    reloaded = JsonlCache(path)
    assert (reloaded.get("a"), reloaded.get("c")) == (1, 3)


def test_importing_the_cli_loads_no_http_or_tls_stack():
    code = (
        "import sys; before = set(sys.modules); import geobox.cli; "
        "print(sorted({'requests', 'urllib3', 'ssl', 'socket', 'http.client', 'email.parser'}"
        " & (set(sys.modules) - before)))"
    )
    src = os.path.dirname(os.path.dirname(geobox.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def _json_decoding_calls(node, where, found):
    """Append ``where`` (the innermost enclosing function) for each ``json.load(s)`` call."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _json_decoding_calls(child, child.name, found)
            continue
        func = getattr(child, "func", None)
        if (
            isinstance(child, ast.Call)
            and isinstance(func, ast.Attribute)
            and func.attr in ("load", "loads")
            and isinstance(func.value, ast.Name)
            and func.value.id == "json"
        ):
            found.append(where)
        _json_decoding_calls(child, where, found)


def test_json_input_is_decoded_only_by_netutil():
    # Every file the package reads, and every reply, goes through
    # decode_json_line, so what counts as malformed JSON is decided in one place.
    calls = []
    for path in sorted(pathlib.Path(geobox.__file__).parent.glob("*.py")):
        found = []
        _json_decoding_calls(ast.parse(path.read_text(encoding="utf-8")), "<module>", found)
        calls += [(path.name, where) for where in found]
    assert calls == [("jsonio.py", "decode_json_line")]
