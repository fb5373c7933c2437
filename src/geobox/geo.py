"""Core geographic types and spherical geometry.

Everything downstream (metrics, parsing, the pipeline) builds on the two
value types defined here: a ``GeoPoint`` in degrees and an axis-aligned
``BoundingBox`` in degrees. All areas and distances are computed on a
sphere of radius ``EARTH_RADIUS_KM``; there is no planar approximation
anywhere in the package.

Boxes never wrap the antimeridian: ``lon_min <= lon_max`` is a hard
constraint, so a box spanning 180E/180W cannot be represented and is
rejected at construction time.
"""

from __future__ import annotations

import dataclasses
import math

from .jsonio import json_text

# IUGG mean earth radius.
EARTH_RADIUS_KM = 6371.0088

# Degrees to radians: ``x * _DEG_TO_RAD`` is ``math.radians(x)`` bit for
# bit (CPython computes it as this same product), without the call.
_DEG_TO_RAD = math.pi / 180.0


def _check_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def value_type(cls):
    """``@dataclass(frozen=True, slots=True)``, with an ``__init__`` that sets slots directly.

    The class keeps everything the plain declaration gives it: the
    ``__init__`` signature (names, order, defaults, annotations), the
    ``__post_init__`` call, ``fields``, ``replace``, eq, hash, repr,
    pickling and ``FrozenInstanceError``. Only the stores differ: the
    frozen dataclass ``__init__`` stores each field through
    ``object.__setattr__``, which finds the slot's member descriptor on
    the type first; this one calls each descriptor's ``__set__`` itself.
    """
    cls = dataclasses.dataclass(frozen=True, slots=True, init=False)(cls)
    fields = dataclasses.fields(cls)
    namespace = {"__name__": cls.__module__}
    params, body = [], []
    for f in fields:
        if f.default_factory is not dataclasses.MISSING or not f.init or f.kw_only:
            raise TypeError(f"{cls.__name__}.{f.name}: value_type fields take plain defaults only")
        namespace[f"_set_{f.name}"] = cls.__dict__[f.name].__set__
        if f.default is dataclasses.MISSING:
            params.append(f.name)
        else:
            namespace[f"_dflt_{f.name}"] = f.default
            params.append(f"{f.name}=_dflt_{f.name}")
        body.append(f"    _set_{f.name}(self, {f.name})\n")
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()\n")
    # A default before a required field fails here, as a SyntaxError.
    exec(f"def __init__(self, {', '.join(params)}):\n{''.join(body)}", namespace)
    init = namespace["__init__"]
    init.__annotations__ = {**{f.name: f.type for f in fields}, "return": None}
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    return cls


@value_type
class GeoPoint:
    """A point on the sphere: latitude and longitude in decimal degrees.

    Raises:
        ValueError: if latitude is outside [-90, 90], longitude outside
            [-180, 180], or either value is non-finite.
    """

    lat: float
    lon: float

    def __post_init__(self) -> None:
        # NaN and +-inf fail these comparisons, so only valid points skip the checks below.
        if -90.0 <= self.lat <= 90.0 and -180.0 <= self.lon <= 180.0:
            return
        _check_finite("lat", self.lat)
        _check_finite("lon", self.lon)
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude out of range [-90, 90]: {self.lat!r}")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude out of range [-180, 180]: {self.lon!r}")


@value_type
class BoundingBox:
    """An axis-aligned box: (lon_min, lat_min, lon_max, lat_max) in degrees.

    Degenerate boxes (zero width and/or height) are valid values; they
    have zero area. Boxes that would wrap the antimeridian
    (lon_min > lon_max) are invalid.

    Raises:
        ValueError: on out-of-range coordinates, non-finite values,
            lon_min > lon_max, or lat_min > lat_max.
    """

    lon_min: float
    lat_min: float
    lon_max: float
    lat_max: float

    def __post_init__(self) -> None:
        # NaN and +-inf fail these comparisons, so only valid boxes skip the checks below.
        if (
            -180.0 <= self.lon_min <= self.lon_max <= 180.0
            and -90.0 <= self.lat_min <= self.lat_max <= 90.0
        ):
            return
        for name in ("lon_min", "lat_min", "lon_max", "lat_max"):
            _check_finite(name, getattr(self, name))
        if not (-180.0 <= self.lon_min <= 180.0 and -180.0 <= self.lon_max <= 180.0):
            raise ValueError(
                f"longitude out of range [-180, 180]: ({self.lon_min!r}, {self.lon_max!r})"
            )
        if not (-90.0 <= self.lat_min <= 90.0 and -90.0 <= self.lat_max <= 90.0):
            raise ValueError(
                f"latitude out of range [-90, 90]: ({self.lat_min!r}, {self.lat_max!r})"
            )
        if self.lon_min > self.lon_max:
            raise ValueError(
                f"lon_min > lon_max ({self.lon_min!r} > {self.lon_max!r}); "
                "antimeridian-wrapping boxes are not representable"
            )
        if self.lat_min > self.lat_max:
            raise ValueError(f"lat_min > lat_max ({self.lat_min!r} > {self.lat_max!r})")

    def contains(self, point: GeoPoint) -> bool:
        """Whether the point lies inside the box, edges inclusive."""
        return (
            self.lon_min <= point.lon <= self.lon_max
            and self.lat_min <= point.lat <= self.lat_max
        )

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.lon_min, self.lat_min, self.lon_max, self.lat_max)


@value_type
class GeoInfo:
    """What a recaller knows about one named location.

    ``center`` is always present; ``bbox`` and ``country`` are optional
    because many sources only provide a point. ``source_id`` carries an
    opaque upstream identifier (gazetteer row id, geocoder place id).
    """

    name: str
    center: GeoPoint
    country: str | None = None
    bbox: BoundingBox | None = None
    source_id: str | None = None


def geoinfo_to_obj(info: GeoInfo) -> dict:
    """JSON object for a GeoInfo: name, lat, lon, then country, bbox, id when set."""
    obj: dict = {"name": info.name, "lat": info.center.lat, "lon": info.center.lon}
    if info.country is not None:
        obj["country"] = info.country
    if info.bbox is not None:
        obj["bbox"] = list(info.bbox.as_tuple())
    if info.source_id is not None:
        obj["id"] = info.source_id
    return obj


def bbox_from_obj(vals) -> BoundingBox:
    """Decode ``[lon_min, lat_min, lon_max, lat_max]``; raises ValueError on any other shape."""
    if not isinstance(vals, (list, tuple)) or len(vals) != 4:
        raise ValueError(f"bbox must be [lon_min, lat_min, lon_max, lat_max], got {vals!r}")
    lon_min, lat_min, lon_max, lat_max = vals
    return BoundingBox(float(lon_min), float(lat_min), float(lon_max), float(lat_max))


def geoinfo_from_obj(obj: dict) -> GeoInfo:
    """Decode the object ``geoinfo_to_obj`` writes; raises KeyError or ValueError."""
    # Positional, in field order: arguments are evaluated left to right,
    # so a malformed object fails on its first bad field in that order.
    return GeoInfo(
        json_text(obj["name"], "name"),
        GeoPoint(float(obj["lat"]), float(obj["lon"])),
        json_text(obj.get("country"), "country", None),
        bbox_from_obj(obj["bbox"]) if obj.get("bbox") is not None else None,
        json_text(obj.get("id"), "id", None),
    )


def haversine_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points, in kilometers.

    Uses the haversine formula on a sphere of radius ``EARTH_RADIUS_KM``.
    Symmetric, zero for identical points, and stable for antipodal pairs.
    """
    return _haversine_km(a.lat, a.lon, b.lat, b.lon)


def _haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """``haversine_km`` on plain degrees, for callers that hold no GeoPoint."""
    phi1 = lat1 * _DEG_TO_RAD
    phi2 = lat2 * _DEG_TO_RAD
    dphi = (lat2 - lat1) * _DEG_TO_RAD
    dlam = (lon2 - lon1) * _DEG_TO_RAD
    h = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    # Rounding can push h a hair past 1 for antipodal points. Same result
    # as min(1.0, max(0.0, h)), without the two calls.
    h = h if h > 0.0 else 0.0
    h = h if h < 1.0 else 1.0
    if h <= 0.5:
        rest = 1.0 - h
    else:
        # Near antipodes 1 - h cancels; this equal sum has no cancellation.
        rest = math.sin((phi1 + phi2) / 2.0) ** 2 + (
            math.cos(phi1) * math.cos(phi2) * math.cos(dlam / 2.0) ** 2
        )
    return 2.0 * EARTH_RADIUS_KM * math.atan2(math.sqrt(h), math.sqrt(rest))


def bbox_centroid(box: BoundingBox) -> GeoPoint:
    """Arithmetic midpoint of the box edges, in degrees.

    This is the plain coordinate midpoint, not the spherical center of
    mass; the two differ at high latitudes but the midpoint is what the
    rest of the package (and its expected values) are defined against.
    """
    return GeoPoint(
        lat=(box.lat_min + box.lat_max) / 2.0,
        lon=(box.lon_min + box.lon_max) / 2.0,
    )


def bbox_area_km2(box: BoundingBox) -> float:
    """Surface area of the box on the sphere, in km^2.

    The box is a spherical zone slice, so the area is
    R^2 * (lon_max - lon_min in radians) * (sin lat_max - sin lat_min).
    Degenerate boxes have zero area.
    """
    dlam = (box.lon_max - box.lon_min) * _DEG_TO_RAD
    band = math.sin(box.lat_max * _DEG_TO_RAD) - math.sin(box.lat_min * _DEG_TO_RAD)
    return EARTH_RADIUS_KM * EARTH_RADIUS_KM * dlam * band


def bbox_intersection(a: BoundingBox, b: BoundingBox) -> BoundingBox | None:
    """Overlap of two boxes, or None when they do not overlap.

    Touching edges or corners count as no overlap: the intersection must
    have strictly positive width and height. Commutative, and idempotent
    for boxes with positive area.
    """
    # max(x, y) and min(x, y) without the calls: each keeps x unless y is
    # strictly beyond it, so ties (0.0 against -0.0) pick the same operand.
    lon_lo = b.lon_min if b.lon_min > a.lon_min else a.lon_min
    lon_hi = b.lon_max if b.lon_max < a.lon_max else a.lon_max
    lat_lo = b.lat_min if b.lat_min > a.lat_min else a.lat_min
    lat_hi = b.lat_max if b.lat_max < a.lat_max else a.lat_max
    if lon_lo >= lon_hi or lat_lo >= lat_hi:
        return None
    return BoundingBox(lon_lo, lat_lo, lon_hi, lat_hi)


# --- canonical coordinate rendering -------------------------------------
#
# The textual protocol between the pipeline and a language model needs a
# single canonical way to print a coordinate: shortest representation
# that round-trips the float, padded to at least three decimal places,
# always positional (no exponent).


def format_coord(value: float) -> str:
    """Render one coordinate for prompt/output text.

    Shortest round-tripping decimal form, padded with zeros to a minimum
    of three decimal places. Falls back to fixed 9-decimal notation for
    magnitudes where repr() would switch to scientific notation.
    """
    _check_finite("coordinate", value)
    text = repr(float(value))
    if "e" in text or "E" in text:
        text = f"{value:.9f}"
    whole, frac = text.split(".", 1)
    if len(frac) < 3:
        frac = frac.ljust(3, "0")
    return f"{whole}.{frac}"


def format_point(point: GeoPoint) -> str:
    """Canonical text form of a point: ``(lat, lon)``."""
    return f"({format_coord(point.lat)}, {format_coord(point.lon)})"


def format_bbox(box: BoundingBox) -> str:
    """Canonical text form of a box: ``(lon_min, lat_min, lon_max, lat_max)``."""
    parts = ", ".join(format_coord(v) for v in box.as_tuple())
    return f"({parts})"
