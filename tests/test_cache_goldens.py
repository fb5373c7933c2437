"""Byte-level goldens for the response caches `geobox run` leaves behind.

The two approaches that call a remote service besides the reasoner run
with `--cache-dir` over the same records, gazetteer and scripted stubs
as the approach goldens, and every cache file must match its checked-in
golden byte for byte: keys, values, line order and encoding. The chat
cache holds completion texts; the geocoder cache holds raw reply bodies
keyed by endpoint and name, so the stub's base URL (its port changes
from run to run) is replaced with a fixed placeholder before comparing.
"""

import pytest

from fixtures import GOLDEN_DIR
from stubs import GeocoderStub
from test_approach_goldens import (
    DigestChatStub,
    golden_gazetteer,
    golden_records,
    script_chat,
    script_geocoder,
)
from geobox.cli import EXIT_OK, main
from geobox.dataset import write_dataset
from geobox.pipeline import Approach

CACHE_GOLDEN_DIR = GOLDEN_DIR / "caches"
GEOCODER_PLACEHOLDER = b"http://geocoder.invalid"

# The cache files each approach writes; an approach that never calls the
# geocoder leaves no geocoder cache behind.
CACHE_FILES = {
    Approach.END_TO_END: ["llm_cache.jsonl"],
    Approach.GEOAUG_REMOTE: ["geocoder_cache.jsonl", "llm_cache.jsonl"],
}


def run_with_cache(approach: Approach, tmp_path) -> dict[str, bytes]:
    """Run one approach through the CLI; return {cache file name: bytes}."""
    dataset = tmp_path / "dataset.jsonl"
    write_dataset(golden_records(), dataset)
    gazetteer = tmp_path / "gazetteer.jsonl"
    golden_gazetteer().save(gazetteer)
    cache_dir = tmp_path / "cache"
    with DigestChatStub() as chat, GeocoderStub() as geocoder:
        script_chat(chat, golden_records())
        script_geocoder(geocoder)
        code = main(
            [
                "run",
                "--approach", approach.value,
                "--model", "golden-m",
                "--recaller-model", "golden-recaller",
                "--dataset", str(dataset),
                "--gazetteer", str(gazetteer),
                "--geocoder-endpoint", geocoder.base_url,
                "--llm-base", chat.base_url,
                "--cache-dir", str(cache_dir),
                "--predictions", str(tmp_path / "preds.jsonl"),
                "--retries", "0",
                "--backoff", "0",
            ]
        )
        base_url = geocoder.base_url.encode("utf-8")
    assert code == EXIT_OK
    return {
        path.name: path.read_bytes().replace(base_url, GEOCODER_PLACEHOLDER)
        for path in sorted(cache_dir.iterdir())
    }


@pytest.mark.parametrize("approach", list(CACHE_FILES), ids=lambda a: a.value)
def test_cache_files_match_goldens(approach, tmp_path):
    caches = run_with_cache(approach, tmp_path)
    assert sorted(caches) == CACHE_FILES[approach]
    for name, data in caches.items():
        assert data, f"{name} is empty"
        assert data == (CACHE_GOLDEN_DIR / f"{approach.value}.{name}").read_bytes(), name
