"""A guided tour of the spherical geometry and scoring toolkit.

Run with:  python3 demos/geometry_tour.py

Everything here is offline and deterministic; the point is to show what
the core types do before wiring any model into the loop.
"""

from geobox import (
    BoundingBox,
    GeoPoint,
    bbox_area_km2,
    bbox_centroid,
    bbox_intersection,
    format_bbox,
    format_point,
    haversine_km,
)
from geobox.metrics import area_precision, area_recall, harmonic_f1
from geobox.parsing import parse_bbox


def section(title):
    print()
    print(title)
    print("-" * len(title))


section("Points and distances")
origin = GeoPoint(lat=0.0, lon=0.0)
pole = GeoPoint(lat=90.0, lon=0.0)
print(f"Equator to pole:      {haversine_km(origin, pole):.3f} km (a quarter circumference)")
print(f"One degree at 0N:     {haversine_km(origin, GeoPoint(lat=0.0, lon=1.0)):.3f} km")
print(f"One degree at 60N:    {haversine_km(GeoPoint(60.0, 0.0), GeoPoint(60.0, 1.0)):.3f} km")
print("Longitude degrees shrink toward the poles; latitude degrees do not.")

section("Boxes and areas")
equator_box = BoundingBox(0.0, 0.0, 10.0, 10.0)
polar_box = BoundingBox(0.0, 70.0, 10.0, 80.0)
print(f"10x10 degrees at the equator: {bbox_area_km2(equator_box):,.0f} km2")
print(f"10x10 degrees near the pole:  {bbox_area_km2(polar_box):,.0f} km2")
print("Same degree spans, very different ground truth: areas are spherical,")
print("never width-times-height in degrees.")

section("Overlap is strict")
west = BoundingBox(0.0, 0.0, 10.0, 10.0)
east = BoundingBox(10.0, 0.0, 20.0, 10.0)
print(f"Boxes sharing only an edge overlap: {bbox_intersection(west, east)}")
shifted = BoundingBox(5.0, 2.0, 15.0, 8.0)
print(f"Partial overlap:                    {format_bbox(bbox_intersection(west, shifted))}")

section("Scoring a prediction against a gold box")
# A mountain lake, and a model's guess that ran a little wide and north.
gold = BoundingBox(6.148, 46.208, 6.940, 46.531)
guess = BoundingBox(6.000, 46.150, 7.100, 46.700)
precision = area_precision(guess, gold)
recall = area_recall(guess, gold)
print(f"Gold:      {format_bbox(gold)}")
print(f"Predicted: {format_bbox(guess)}")
print(f"Area precision {precision:.3f}, recall {recall:.3f}, F1 {harmonic_f1(precision, recall):.3f}")
print(f"Centroid distance: {haversine_km(bbox_centroid(guess), bbox_centroid(gold)):.1f} km")
print("A box that swallows the gold has recall 1 but pays for it in precision.")

section("Reading coordinates out of model prose")
transcript = (
    "The lake sits between the Jura in the north-west (6.06) and the Alps "
    "in the south-east (6.94), so a reasonable bounding box would be "
    "(6.060, 46.200, 6.940, 46.540)."
)
box, _ = parse_bbox(transcript)
print(f"Transcript: ...{transcript[-60:]}")
print(f"Extracted:  {format_bbox(box)}")
print("Only the last well-formed tuple counts; the asides in parentheses are ignored.")

_, flags = parse_bbox("My answer is (6.940, 46.540, 6.060, 46.200).")
print(f"Inverted bounds are found but rejected: flags={flags}")

section("Canonical rendering round-trips")
point = GeoPoint(lat=-36.8508827, lon=174.7644881)
print(f"format_point: {format_point(point)}")
print(f"format_bbox:  {format_bbox(gold)}")
print("Rendered at full precision, padded to three decimals, parseable right back.")
