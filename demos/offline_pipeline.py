"""Run the whole grounding pipeline against a scripted local model server.

Run with:  python3 demos/offline_pipeline.py

No real LLM or geocoder is involved: a tiny HTTP server plays the model,
answering each description with a canned transcript. That is enough to
exercise prompt assembly, recall from a gazetteer store, extraction,
scoring, error probes, and the fine-tune export, all deterministically.
"""

import json
import tempfile
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from geobox import (
    BoundingBox,
    ChatClient,
    GazetteerStore,
    GeoInfo,
    GeoPoint,
    export_finetune_jsonl,
    format_bbox,
)
from geobox.analysis import analyze_errors
from geobox.dataset import LocationRecord, Mention, golds_by_id
from geobox.pipeline import Approach, ExperimentConfig, RunDeps, run_experiment
from geobox.report import render_error_report, render_report

# --- a tiny dataset of compositional descriptions -------------------------------

RECORDS = [
    LocationRecord(
        record_id="lake-geneva",
        description=(
            "The location is a crescent-shaped alpine lake shared by Lausanne "
            "on its northern shore and Geneva at its western tip."
        ),
        gold_bbox=BoundingBox(6.148, 46.208, 6.940, 46.531),
        mentions=(
            Mention("Lausanne", GeoInfo("Lausanne", center=GeoPoint(46.5197, 6.6323))),
            Mention("Geneva", GeoInfo("Geneva", center=GeoPoint(46.2044, 6.1432))),
        ),
    ),
    LocationRecord(
        record_id="cook-strait",
        description=(
            "The location is the strait separating Wellington from Blenheim, "
            "linking the Tasman Sea with the South Pacific."
        ),
        gold_bbox=BoundingBox(173.999, -41.767, 174.823, -41.094),
        mentions=(
            Mention("Wellington", GeoInfo("Wellington", center=GeoPoint(-41.2866, 174.7756))),
            Mention("Blenheim", GeoInfo("Blenheim", center=GeoPoint(-41.5134, 173.9612))),
        ),
    ),
    LocationRecord(
        record_id="uncooperative",
        description=(
            "The location is a ridge somewhere north of Thingvellir that the "
            "model will refuse to pin down."
        ),
        gold_bbox=BoundingBox(-21.4, 64.25, -20.9, 64.45),
        mentions=(Mention("Thingvellir", GeoInfo("Thingvellir", center=GeoPoint(64.2559, -21.1291))),),
    ),
]

# One verbose transcript, one terse answer, one refusal. Keyed by a
# fragment of the description that will appear in the user prompt.
SCRIPT = {
    "crescent-shaped alpine lake": (
        "Lausanne sits at (6.6323) east and Geneva at (6.1432) west, so the "
        "lake must span roughly between them, hugging the north shore. "
        "Final answer: (6.100, 46.180, 6.960, 46.560)"
    ),
    "strait separating Wellington": "(173.950, -41.800, 174.850, -41.050)",
    "ridge somewhere north": "I cannot determine a bounding box from this description.",
}


class ScriptedModel(BaseHTTPRequestHandler):
    def log_message(self, *args):
        pass

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        user = body["messages"][-1]["content"]
        reply = next((text for frag, text in SCRIPT.items() if frag in user), "no idea")
        payload = json.dumps(
            {"choices": [{"message": {"role": "assistant", "content": reply}}]}
        ).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)


def main():
    server = ThreadingHTTPServer(("127.0.0.1", 0), ScriptedModel)
    base_url = f"http://127.0.0.1:{server.server_port}"
    import threading

    threading.Thread(target=server.serve_forever, daemon=True).start()

    store = GazetteerStore()
    for record in RECORDS:
        for mention in record.mentions:
            store.add(mention.gold)

    try:
        config = ExperimentConfig(Approach.GEOAUG_ORACLE, model="scripted-demo")
        deps = RunDeps(chat=ChatClient(base_url), store=store)
        predictions, report = run_experiment(config, RECORDS, deps)
    finally:
        server.shutdown()

    print("Per-record outcomes")
    print("-------------------")
    for prediction in predictions:
        if prediction.bbox is not None:
            shape = format_bbox(prediction.bbox)
        elif prediction.point is not None:
            shape = str(prediction.point)
        else:
            shape = "nothing usable"
        flags = f"  flags={list(prediction.flags)}" if prediction.flags else ""
        print(f"{prediction.record_id:<15} -> {shape}{flags}")

    print()
    print(render_report([(report.label, report)]))
    print()
    print(render_error_report(analyze_errors(predictions, golds_by_id(RECORDS))))

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "sft.jsonl"
        stats = export_finetune_jsonl(RECORDS, "geoaug-oracle", out)
        rows = [json.loads(line) for line in out.read_text().splitlines()]
    print()
    print(f"Fine-tune export: {stats.written} rows, {stats.skipped} skipped.")
    print(f"First assistant turn: {rows[0]['assistant']}")


if __name__ == "__main__":
    main()
