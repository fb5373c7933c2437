"""geobox: ground compositional location descriptions into bounding boxes.

The package splits the problem into a recaller (name -> geography: a
gazetteer table, a remote geocoder, or an LLM) and a reasoner (an LLM
that combines the description with recalled geography into one box),
plus spherical metrics to score the results and a CLI to run the whole
thing over JSONL datasets.
"""

from .analysis import ErrorReport, analyze_errors
from .dataset import (
    DataError,
    LoadReport,
    LocationRecord,
    Mention,
    golds_by_id,
    load_dataset,
    read_predictions,
    sample_train_subset,
    write_dataset,
    write_predictions,
)
from .gazetteer import GazetteerStore, GeocoderClient, normalize_name
from .geo import (
    EARTH_RADIUS_KM,
    BoundingBox,
    GeoInfo,
    GeoPoint,
    bbox_area_km2,
    bbox_centroid,
    bbox_intersection,
    format_bbox,
    format_coord,
    format_point,
    haversine_km,
)
from .metrics import (
    MetricsReport,
    Prediction,
    aggregate,
    area_precision,
    area_recall,
    distance_error_km,
    harmonic_f1,
)
from .netutil import EmptyResponseError, ProtocolError, TransportError
from .parsing import parse_bbox, parse_point
from .pipeline import Approach, ExperimentConfig, RunDeps, run_experiment, run_record
from .prompts import PromptKind, system_text
from .reasoner import (
    ChatClient,
    ChatRequest,
    ExportStats,
    RecalledMention,
    build_prompt,
    export_finetune_jsonl,
    extract_mentions,
    extract_prediction,
    mention_sentence,
)
from .report import render_error_report, render_report

__version__ = "0.1.0"

__all__ = [
    "EARTH_RADIUS_KM",
    "Approach",
    "BoundingBox",
    "ChatClient",
    "ChatRequest",
    "DataError",
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
