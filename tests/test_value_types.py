"""The six slotted value types build as plain frozen, slotted dataclasses do.

``geo.value_type`` gives them their own ``__init__``. Each type here is
compared with a twin declared the plain way, ``@dataclass(frozen=True,
slots=True)``, with the same name, fields and ``__post_init__``: the
signature, what each way of calling builds, the errors a bad call raises,
``replace``, ``pickle`` and ``copy.deepcopy`` must all agree.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import pickle
from dataclasses import dataclass

import pytest

from geobox import dataset, geo, metrics


@dataclass(frozen=True, slots=True)
class GeoPoint:
    lat: float
    lon: float

    __post_init__ = geo.GeoPoint.__post_init__


@dataclass(frozen=True, slots=True)
class BoundingBox:
    lon_min: float
    lat_min: float
    lon_max: float
    lat_max: float

    __post_init__ = geo.BoundingBox.__post_init__


@dataclass(frozen=True, slots=True)
class GeoInfo:
    name: str
    center: GeoPoint
    country: str | None = None
    bbox: BoundingBox | None = None
    source_id: str | None = None


@dataclass(frozen=True, slots=True)
class Prediction:
    record_id: str
    approach: str
    model: str = ""
    bbox: BoundingBox | None = None
    point: GeoPoint | None = None
    raw_text: str = ""
    recalled: tuple[tuple[str, GeoInfo], ...] = ()
    flags: tuple[str, ...] = ()

    __post_init__ = metrics.Prediction.__post_init__


@dataclass(frozen=True, slots=True)
class Mention:
    name: str
    gold: GeoInfo | None = None

    __post_init__ = dataset.Mention.__post_init__


@dataclass(frozen=True, slots=True)
class LocationRecord:
    record_id: str
    description: str
    gold_bbox: BoundingBox
    mentions: tuple[Mention, ...] = ()
    gold_name: str | None = None
    gold_country: str | None = None

    __post_init__ = dataset.LocationRecord.__post_init__


_BOX = geo.BoundingBox(0.0, 0.0, 1.0, 1.0)
_INFO = geo.GeoInfo("Oman", geo.GeoPoint(0.5, 0.5))

# (value type, twin, every field's argument, how many of them are required)
CASES = [
    (geo.GeoPoint, GeoPoint, (1.5, -2.5), 2),
    (geo.BoundingBox, BoundingBox, (0.0, -1.0, 2.0, 3.0), 4),
    (geo.GeoInfo, GeoInfo, ("Oman", geo.GeoPoint(0.5, 0.5), "OM", _BOX, "p1"), 2),
    (
        metrics.Prediction,
        Prediction,
        ("r1", "direct", "m", _BOX, None, "text", (("Oman", _INFO),), ("degraded",)),
        2,
    ),
    (dataset.Mention, Mention, ("Oman", _INFO), 1),
    (
        dataset.LocationRecord,
        LocationRecord,
        ("r1", "Near Oman", _BOX, (dataset.Mention("Oman"),), "Oman", "OM"),
        3,
    ),
]
IDS = [case[0].__name__ for case in CASES]


def _state(value):
    return tuple(getattr(value, f.name) for f in dataclasses.fields(value))


@pytest.mark.parametrize("cls, twin, args, n_required", CASES, ids=IDS)
def test_signature_matches_the_plain_dataclass(cls, twin, args, n_required):
    assert inspect.signature(cls) == inspect.signature(twin)
    assert [f.name for f in dataclasses.fields(cls)] == [f.name for f in dataclasses.fields(twin)]
    assert cls.__init__.__qualname__ == f"{cls.__name__}.__init__"


@pytest.mark.parametrize("cls, twin, args, n_required", CASES, ids=IDS)
def test_every_way_of_calling_builds_what_the_plain_dataclass_builds(
    cls, twin, args, n_required
):
    names = [f.name for f in dataclasses.fields(cls)]
    positional = cls(*args)
    keyword = cls(**dict(zip(names, args)))
    mixed = cls(*args[:1], **dict(zip(names[1:], args[1:])))
    assert positional == keyword == mixed
    assert hash(positional) == hash(keyword) == hash(twin(*args))
    assert _state(positional) == _state(twin(*args)) == args
    assert repr(positional) == repr(twin(*args))

    defaulted = cls(*args[:n_required])
    assert _state(defaulted) == _state(twin(*args[:n_required]))
    assert hash(defaulted) == hash(twin(*args[:n_required]))


@pytest.mark.parametrize("cls, twin, args, n_required", CASES, ids=IDS)
def test_bad_calls_raise_what_the_plain_dataclass_raises(cls, twin, args, n_required):
    calls = [
        lambda c: c(*args[: n_required - 1]),
        lambda c: c(*args, None),
        lambda c: c(*args, unknown=1),
        lambda c: c(*args, **{dataclasses.fields(c)[0].name: args[0]}),
    ]
    for call in calls:
        with pytest.raises(TypeError) as ours:
            call(cls)
        with pytest.raises(TypeError) as plain:
            call(twin)
        assert str(ours.value) == str(plain.value)


@pytest.mark.parametrize("cls, twin, args, n_required", CASES, ids=IDS)
def test_replace_pickle_and_deepcopy_round_trip(cls, twin, args, n_required):
    value = cls(*args)
    first = dataclasses.fields(cls)[0].name
    assert dataclasses.replace(value) == value
    assert dataclasses.replace(value, **{first: args[0]}) == value
    assert dataclasses.asdict(value) == dataclasses.asdict(twin(*args))
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert copied == value and type(copied) is cls
        assert hash(copied) == hash(value)


@pytest.mark.parametrize(
    "value, changes, message",
    [
        (
            geo.BoundingBox(0.0, 0.0, 1.0, 1.0),
            {"lon_min": 2.0},
            "lon_min > lon_max (2.0 > 1.0); antimeridian-wrapping boxes are not representable",
        ),
        (geo.GeoPoint(0.0, 0.0), {"lat": 95.0}, "latitude out of range [-90, 90]: 95.0"),
        (
            metrics.Prediction("r1", "direct", bbox=_BOX),
            {"point": geo.GeoPoint(0.0, 0.0)},
            "prediction cannot carry both a bbox and a point",
        ),
        (dataset.Mention("Oman"), {"name": " "}, "mention name must be non-empty"),
        (
            dataset.LocationRecord("r1", "Near Oman", _BOX),
            {"mentions": (dataset.Mention("Yemen"),)},
            "mention 'Yemen' does not occur in the description",
        ),
    ],
)
def test_replace_runs_the_checks(value, changes, message):
    with pytest.raises(ValueError) as info:
        dataclasses.replace(value, **changes)
    assert str(info.value) == message


def test_a_default_before_a_required_field_is_refused():
    with pytest.raises(SyntaxError):

        @geo.value_type
        class Misordered:
            a: int = 0
            b: int


@pytest.mark.parametrize(
    "spec",
    [
        dataclasses.field(default_factory=list),
        dataclasses.field(default=0, init=False),
        dataclasses.field(default=0, kw_only=True),
    ],
)
def test_fields_beyond_plain_defaults_are_refused(spec):
    with pytest.raises(TypeError, match="value_type fields take plain defaults only"):
        geo.value_type(type("Special", (), {"__annotations__": {"a": "int"}, "a": spec}))
