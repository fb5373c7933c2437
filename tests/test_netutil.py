from geobox.netutil import JsonlCache


def test_put_after_torn_tail_starts_a_new_line(tmp_path):
    path = tmp_path / "cache.jsonl"
    JsonlCache(path).put("a", 1)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"key": "b", "va')  # a writer killed mid-line
    cache = JsonlCache(path)
    cache.put("c", 3)
    cache.put("d", 4)
    reloaded = JsonlCache(path)
    assert len(reloaded) == 3
    assert (reloaded.get("a"), reloaded.get("c"), reloaded.get("d")) == (1, 3, 4)
    assert "b" not in reloaded
