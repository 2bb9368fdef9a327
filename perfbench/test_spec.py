"""BENCHMARK.json lists exactly the workloads and metrics that run.py prints."""

import json
from pathlib import Path

import run
import spans
import workloads


def test_benchmark_json_matches_printed_metrics():
    doc = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())

    def rows(key):
        return [(m["name"], m["unit"], m["better"]) for m in doc[key]]

    assert rows("end_to_end") == list(run.END_TO_END)
    assert rows("per_layer") == run.per_layer_spec(spans.LAYERS, workloads.SHIPPED, workloads.CRITERIA)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
