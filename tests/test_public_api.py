"""The package's public names: a change to ``geobox.__all__`` is a change here."""

import geobox

PUBLIC_API = [
    "Approach",
    "BoundingBox",
    "ChatClient",
    "ChatRequest",
    "DataError",
    "EARTH_RADIUS_KM",
    "EmptyResponseError",
    "ErrorReport",
    "ExperimentConfig",
    "ExportStats",
    "GazetteerStore",
    "GeoInfo",
    "GeoPoint",
    "GeocoderClient",
    "LoadReport",
    "LocationRecord",
    "Mention",
    "MetricsReport",
    "Prediction",
    "PromptKind",
    "ProtocolError",
    "RecalledMention",
    "RunDeps",
    "TransportError",
    "aggregate",
    "analyze_errors",
    "area_precision",
    "area_recall",
    "bbox_area_km2",
    "bbox_centroid",
    "bbox_intersection",
    "build_prompt",
    "distance_error_km",
    "export_finetune_jsonl",
    "extract_mentions",
    "extract_prediction",
    "format_bbox",
    "format_coord",
    "format_point",
    "golds_by_id",
    "harmonic_f1",
    "haversine_km",
    "load_dataset",
    "mention_sentence",
    "normalize_name",
    "parse_bbox",
    "parse_point",
    "read_predictions",
    "render_error_report",
    "render_report",
    "run_experiment",
    "run_record",
    "sample_train_subset",
    "system_text",
    "write_dataset",
    "write_predictions",
]


def test_public_names_are_pinned():
    assert sorted(geobox.__all__) == PUBLIC_API


def test_every_public_name_resolves():
    missing = [name for name in geobox.__all__ if not hasattr(geobox, name)]
    assert missing == []
