import json
import logging
from contextlib import closing

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from geobox import BoundingBox, GazetteerStore, GeocoderClient, GeoInfo, GeoPoint
from geobox.gazetteer import normalize_name
from geobox.geo import geoinfo_from_obj, geoinfo_to_obj
from geobox.netutil import ProtocolError, TransportError

# --- name normalization ------------------------------------------------------


def test_normalize_name():
    assert normalize_name("  Strait   of Hormuz ") == "strait of hormuz"
    assert normalize_name("PARIS") == "paris"
    assert normalize_name("Großglockner") == normalize_name("GROSSGLOCKNER")


# --- store ---------------------------------------------------------------------


def _info(name, lat, lon, country=None, bbox=None):
    return GeoInfo(name=name, center=GeoPoint(lat=lat, lon=lon), country=country, bbox=bbox)


def test_store_lookup_ignores_case_and_spacing():
    store = GazetteerStore([_info("Strait of Hormuz", 26.4494061, 56.20277021626677)])
    hit = store.lookup("  strait  OF hormuz ")
    assert hit is not None
    assert hit.center == GeoPoint(lat=26.4494061, lon=56.20277021626677)
    assert store.lookup("strait of gibraltar") is None


def test_store_duplicate_name_returns_first_entry():
    first = _info("Springfield", 39.7817, -89.6501, country="United States")
    second = _info("springfield", 44.0462, -123.022, country="Canada")
    store = GazetteerStore([first, second])
    assert store.lookup("SPRINGFIELD") is first
    assert list(store) == [first, second]


def test_store_len_and_iter():
    entries = [_info("A", 1, 2), _info("B", 3, 4), _info("a", 5, 6)]
    store = GazetteerStore(entries)
    assert len(store) == 3
    assert sorted(i.name for i in store) == ["A", "B", "a"]


def test_oracle_lookup_is_pure_table_access():
    store = GazetteerStore([_info("Oman", 21.0000287, 57.0)])
    assert store.lookup("oman").center.lat == 21.0000287
    assert store.lookup("atlantis") is None


def test_geoinfo_obj_round_trip():
    full = _info(
        "Brazil",
        -14.243,
        -53.189,
        country="Brazil",
        bbox=BoundingBox(-73.983, -33.75, -34.793, 5.27),
    )
    assert geoinfo_from_obj(geoinfo_to_obj(full)) == full
    minimal = _info("Oman", 21.0000287, 57.0)
    assert geoinfo_from_obj(geoinfo_to_obj(minimal)) == minimal


def test_store_save_load_round_trip(tmp_path):
    path = tmp_path / "gaz.jsonl"
    store = GazetteerStore(
        [
            _info("Oman", 21.0000287, 57.0, country="Oman"),
            _info("Iran", 32.6475314, 53.688),
        ]
    )
    store.save(path)
    loaded = GazetteerStore.load(path)
    assert len(loaded) == 2
    assert loaded.lookup("oman").country == "Oman"
    assert loaded.lookup("Iran").center.lon == 53.688


def test_store_save_keeps_old_file_when_a_row_fails(tmp_path):
    path = tmp_path / "gaz.jsonl"
    GazetteerStore([_info("Oman", 21.0000287, 57.0)]).save(path)
    before = path.read_bytes()
    # a set is not JSON, so encoding the second row raises
    broken = GazetteerStore(
        [_info("Iran", 32.6475314, 53.688), _info("Bad", 1.0, 2.0, country={"x"})]
    )
    with pytest.raises(TypeError):
        broken.save(path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_store_load_skips_bad_lines(tmp_path, caplog):
    path = tmp_path / "gaz.jsonl"
    lines = [
        json.dumps({"name": "Oman", "lat": 21.0000287, "lon": 57.0}),
        "{this is not json",
        json.dumps({"name": "NoCoords"}),
        json.dumps({"name": "BadLat", "lat": 123.0, "lon": 57.0}),
        json.dumps({"name": "HugeLat", "lat": 10**400, "lon": 57.0}),  # overflows float()
        "",
        json.dumps({"name": "Iran", "lat": 32.6475314, "lon": 53.688}),
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with caplog.at_level(logging.WARNING):
        store = GazetteerStore.load(path)
    assert len(store) == 2
    assert store.lookup("Iran") is not None
    assert sum("skipped" in r.message for r in caplog.records) >= 4


def test_store_load_skips_a_line_with_a_lone_surrogate(tmp_path, caplog):
    path = tmp_path / "gaz.jsonl"
    path.write_text(
        '{"name": "Bad\\ud800", "lat": 1.0, "lon": 2.0}\n'
        '{"name": "Good\\ud83d\\ude00", "lat": 1.0, "lon": 2.0}\n',
        encoding="utf-8",
    )
    with caplog.at_level(logging.WARNING):
        store = GazetteerStore.load(path)
    assert [info.name for info in store] == ["Good\U0001f600"]
    assert "line 1 skipped: 'utf-8' codec can't encode" in caplog.text


# --- remote geocoder -----------------------------------------------------------


def _client(stub, **kw):
    kw.setdefault("backoff_s", 0.01)
    kw.setdefault("rate_per_sec", 1000.0)
    return GeocoderClient(stub.base_url, **kw)


def test_geocode_success_maps_fields(geocoder_stub):
    geocoder_stub.add(
        "Strait of Hormuz",
        lat=26.449406099999997,
        lng=56.20277021626677,
        viewport=(55.9, 26.1, 56.5, 26.7),
        place_id="p-hormuz",
    )
    client = _client(geocoder_stub, api_key=None)
    info = client.geocode("Strait of Hormuz")
    assert info is not None
    assert info.center == GeoPoint(lat=26.449406099999997, lon=56.20277021626677)
    assert info.bbox == BoundingBox(55.9, 26.1, 56.5, 26.7)
    assert info.source_id == "p-hormuz"
    assert client.stats["requests"] == 1


def test_geocode_without_viewport_has_no_bbox(geocoder_stub):
    geocoder_stub.add("Oman", lat=21.0000287, lng=57.0)
    info = _client(geocoder_stub).geocode("Oman")
    assert info.bbox is None
    assert info.center == GeoPoint(lat=21.0000287, lon=57.0)


def test_geocode_unusable_viewport_degrades_to_center(geocoder_stub, caplog):
    # a viewport wrapping the antimeridian cannot be represented
    geocoder_stub.add("Fiji", lat=-17.8, lng=178.0, viewport=(170.0, -21.0, -178.0, -15.0))
    with caplog.at_level(logging.WARNING):
        info = _client(geocoder_stub).geocode("Fiji")
    assert info is not None
    assert info.bbox is None
    assert info.center == GeoPoint(lat=-17.8, lon=178.0)
    # the reply is parsed once: validated and decoded in one pass
    assert sum("unusable viewport" in r.message for r in caplog.records) == 1


def test_geocode_zero_results_returns_none(geocoder_stub):
    client = _client(geocoder_stub)
    assert client.geocode("Atlantis") is None


def test_geocode_sends_api_key(geocoder_stub):
    geocoder_stub.add("Oman", lat=21.0000287, lng=57.0)
    _client(geocoder_stub, api_key="sekrit").geocode("Oman")
    assert geocoder_stub.core.requests[-1]["key"] == "sekrit"


def test_geocode_api_key_from_env(geocoder_stub, monkeypatch):
    monkeypatch.setenv("GEOCODER_API_KEY", "from-env")
    geocoder_stub.add("Oman", lat=21.0000287, lng=57.0)
    _client(geocoder_stub).geocode("Oman")
    assert geocoder_stub.core.requests[-1]["key"] == "from-env"


def test_geocode_retries_on_429(geocoder_stub):
    geocoder_stub.add("Oman", lat=21.0000287, lng=57.0)
    geocoder_stub.core.fail_next(2, status=429)
    client = _client(geocoder_stub)
    info = client.geocode("Oman")
    assert info is not None
    assert client.stats["retries"] == 2
    assert geocoder_stub.core.request_count == 3


def test_geocode_gives_up_after_retries(geocoder_stub):
    geocoder_stub.add("Oman", lat=21.0000287, lng=57.0)
    geocoder_stub.core.fail_next(10, status=503)
    client = _client(geocoder_stub, max_retries=2)
    with pytest.raises(TransportError):
        client.geocode("Oman")
    assert geocoder_stub.core.request_count == 3  # initial + 2 retries


def test_geocode_unreachable_endpoint():
    client = GeocoderClient(
        "http://127.0.0.1:9/geocode", backoff_s=0.01, max_retries=1, rate_per_sec=1000.0
    )
    with pytest.raises(TransportError):
        client.geocode("Oman")


def test_geocode_malformed_body_is_protocol_error(geocoder_stub):
    geocoder_stub.add("Oman", lat=21.0000287, lng=57.0)
    geocoder_stub.core.malform_next()
    with pytest.raises(ProtocolError):
        _client(geocoder_stub).geocode("Oman")


def test_geocode_missing_geometry_is_protocol_error(geocoder_stub):
    geocoder_stub._places[geocoder_stub._norm("Broken")] = {"formatted_address": "Broken"}
    with pytest.raises(ProtocolError):
        _client(geocoder_stub).geocode("Broken")


def test_geocode_memory_cache_within_instance(geocoder_stub):
    geocoder_stub.add("Oman", lat=21.0000287, lng=57.0)
    client = _client(geocoder_stub)
    first = client.geocode("Oman")
    second = client.geocode("  OMAN ")  # normalized query shares the cache slot
    assert second == first
    assert client.stats["cache_hits"] == 1
    assert geocoder_stub.core.request_count == 1


def test_geocode_cache_file_survives_client_restart(geocoder_stub, tmp_path):
    cache = tmp_path / "geo_cache.jsonl"
    geocoder_stub.add("Oman", lat=21.0000287, lng=57.0)
    with closing(_client(geocoder_stub, cache_path=cache)) as client:
        first = client.geocode("Oman")

    fresh = _client(geocoder_stub, cache_path=cache)
    second = fresh.geocode("Oman")
    fresh.close()
    assert second == first
    assert fresh.stats["requests"] == 0
    assert fresh.stats["cache_hits"] == 1
    assert geocoder_stub.core.request_count == 1


def test_geocode_cached_reply_of_the_wrong_shape_is_a_protocol_error(geocoder_stub, tmp_path):
    cache = tmp_path / "geo_cache.jsonl"
    with closing(_client(geocoder_stub, cache_path=cache)) as client:
        assert client.geocode("Oman") is None
    # The cached ZERO_RESULTS reply becomes {"status": "OK", "results": []}.
    cache.write_text(cache.read_text().replace('"ZERO_RESULTS"', '"OK"'))
    geocoder_stub.add("Oman", lat=21.0, lng=57.0)
    fresh = _client(geocoder_stub, cache_path=cache)
    with pytest.raises(ProtocolError, match="malformed geocoder result for 'Oman'"):
        fresh.geocode("Oman")
    assert geocoder_stub.core.request_count == 1
    assert fresh.stats["cache_hits"] == 1


@pytest.mark.parametrize(
    "field, value",
    [("formatted_address", ["Oslo", "NO"]), ("place_id", {"a": 1}), ("formatted_address", False)],
)
def test_geocode_non_text_field_is_a_protocol_error(geocoder_stub, tmp_path, field, value):
    cache = tmp_path / "geo_cache.jsonl"
    geocoder_stub.add("Oslo", lat=59.9, lng=10.7)
    geocoder_stub._places["oslo"][field] = value
    error = f"malformed geocoder result for 'Oslo': {field} must be text, got {type(value).__name__}"
    with closing(_client(geocoder_stub, cache_path=cache)) as client:
        with pytest.raises(ProtocolError, match=error):
            client.geocode("Oslo")
    assert not cache.exists()  # a malformed reply is not cached

    # The same reply, cached, fails the same way and sends no request.
    key = json.dumps([geocoder_stub.base_url, "oslo"], separators=(",", ":"))
    reply = {"status": "OK", "results": [geocoder_stub._places["oslo"]]}
    cache.write_text(json.dumps({"key": key, "value": reply}) + "\n")
    with closing(_client(geocoder_stub, cache_path=cache)) as fresh:
        with pytest.raises(ProtocolError, match=error):
            fresh.geocode("Oslo")
    assert fresh.stats["cache_hits"] == 1
    assert geocoder_stub.core.request_count == 1


@pytest.mark.parametrize(
    "address, place_id, name, source_id",
    [(7, 12.5, "7", "12.5"), ("", "", "Oslo", None), (0, 0, "Oslo", None), (None, None, "Oslo", None)],
)
def test_geocode_text_fields_as_before(geocoder_stub, address, place_id, name, source_id):
    geocoder_stub.add("Oslo", lat=59.9, lng=10.7)
    geocoder_stub._places["oslo"].update(formatted_address=address, place_id=place_id)
    info = _client(geocoder_stub).geocode("Oslo")
    assert (info.name, info.source_id) == (name, source_id)


def test_geocode_negative_results_are_cached(geocoder_stub, tmp_path):
    cache = tmp_path / "geo_cache.jsonl"
    with closing(_client(geocoder_stub, cache_path=cache)) as client:
        assert client.geocode("Atlantis") is None
    fresh = _client(geocoder_stub, cache_path=cache)
    assert fresh.geocode("Atlantis") is None
    fresh.close()
    assert fresh.stats["cache_hits"] == 1
    assert geocoder_stub.core.request_count == 1


def test_geocode_rate_limit_spacing(geocoder_stub):
    for i in range(5):
        geocoder_stub.add(f"Place {i}", lat=float(i), lng=float(i))
    client = GeocoderClient(geocoder_stub.base_url, rate_per_sec=50.0, backoff_s=0.01)
    for i in range(5):
        client.geocode(f"Place {i}")
    times = [r["t"] for r in geocoder_stub.core.requests]
    assert times[-1] - times[0] >= 4 / 50.0 - 0.005


def test_geocode_known_then_unknown(geocoder_stub):
    geocoder_stub.add("Oman", lat=21.0000287, lng=57.0)
    client = _client(geocoder_stub)
    assert client.geocode("Oman").center.lat == 21.0000287
    assert client.geocode("Atlantis") is None


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=12,
)


def _dict(required=None, optional=None):
    """A dict in the geocoder's shape, or any JSON in its place."""
    return st.fixed_dictionaries(required or {}, optional=optional) | _json


_corner = _dict({"lat": _json, "lng": _json})
_result = _dict(
    optional={
        "geometry": _dict(
            optional={
                "location": _corner,
                "viewport": _dict({"southwest": _corner, "northeast": _corner}),
            }
        ),
        "formatted_address": _json,
        "place_id": _json,
    }
)
_reply = _dict(
    {"status": st.sampled_from(["OK", "ZERO_RESULTS"]) | _json},
    optional={"results": st.lists(_result, max_size=2) | _json},
)
_HUGE = 10**400  # JSON holds it; float() overflows


@given(_reply)
@example({"status": "OK", "results": [{"geometry": {"location": {"lat": _HUGE, "lng": 1}}}]})
@example(
    {
        "status": "OK",
        "results": [
            {
                "geometry": {
                    "location": {"lat": 1, "lng": 1},
                    "viewport": {
                        "southwest": {"lat": 0, "lng": 0},
                        "northeast": {"lat": 2, "lng": _HUGE},
                    },
                }
            }
        ],
    }
)
def test_any_geocoder_json_gives_geoinfo_none_or_protocol_error(data):
    client = GeocoderClient("http://127.0.0.1:9/geocode")
    try:
        result = client._parse_response("Oman", data)
    except ProtocolError:
        return
    assert result is None or isinstance(result, GeoInfo)
