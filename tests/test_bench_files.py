"""Every BENCH_*.json at the repository root backs a performance claim: each
entry names a workload and a metric that BENCHMARK.json declares and holds
at least ten parent/change pairs of measured values."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in SPEC["workloads"]}
METRICS = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
MIN_PAIRS = 10


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_bench_file_entries_name_declared_metrics_with_enough_pairs(path):
    doc = json.loads(path.read_text())
    assert doc["entries"], f"{path.name} has no entries"
    for entry in doc["entries"]:
        where = f"{path.name}: {entry.get('workload')}/{entry.get('metric')}"
        assert entry["workload"] in WORKLOADS, where
        assert entry["metric"] in METRICS, where
        assert len(entry["pairs"]) >= MIN_PAIRS, where
        for pair in entry["pairs"]:
            assert isinstance(pair["parent"], (int, float)) and isinstance(pair["change"], (int, float)), where
