"""Every BENCH_*.json at the repository root backs a performance claim: each
entry names a workload and a metric that BENCHMARK.json declares and holds
at least ten parent/change pairs of measured values.  tools/bench_pairs.py,
which writes those files, reports why a benchmark run failed."""

import importlib.util
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


def _load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_reports_a_failing_run(tmp_path):
    # A fake checkout whose benchmark exits 1: no real benchmark runs.
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import sys\nprint('set-up log line', file=sys.stderr)\n"
        "sys.exit('stage serve failed: reference mismatch')\n"
    )
    with pytest.raises(SystemExit) as raised:
        _load_bench_pairs().run_once(tmp_path, "serve", 107, 1.0)
    message = str(raised.value)
    assert message.startswith(f"{tmp_path}: serve seed 107 exited 1;")
    assert message.endswith("set-up log line\nstage serve failed: reference mismatch")


LOWER = {"better": "lower", "bound": 0.25}


def _pairs(parent, change):
    return [{"parent": p, "change": c} for p, c in zip(parent, change)]


@pytest.mark.parametrize("parent, change, claimed, word", [
    # Change wins all ten pairs, by more than the parent's quartile spread.
    ([100 + k for k in range(10)], [80 + k for k in range(10)], True, "gain"),
    # The same numbers without a claim only hold.
    ([100 + k for k in range(10)], [80 + k for k in range(10)], False, "holds"),
    # A claimed metric that wins only 8 of 10 pairs is no gain.
    ([100 + k for k in range(10)], [80 + k for k in range(8)] + [120, 121], True, "holds"),
    # A median 30 % worse than the parent's breaks the 25 % bound.
    ([100 + k for k in range(10)], [130 + k for k in range(10)], False, "regression"),
    # The parent's own spread (quartiles 55-145) is wider than the bound.
    ([10, 40, 50, 60, 100, 100, 140, 150, 160, 190], [100] * 10, False, "unresolved"),
    # Equal medians within a tight spread.
    ([100 + k % 2 for k in range(10)], [100 + (k + 1) % 2 for k in range(10)], False, "holds"),
])
def test_bench_pairs_verdict(parent, change, claimed, word):
    assert _load_bench_pairs().verdict(LOWER, _pairs(parent, change), claimed)["verdict"] == word


def test_bench_pairs_verdict_reads_higher_is_better():
    higher = {"better": "higher", "bound": 0.25}
    parent, change = [100 + k for k in range(10)], [130 + k for k in range(10)]
    result = _load_bench_pairs().verdict(higher, _pairs(parent, change), True)
    assert result["verdict"] == "gain" and result["change_wins"] == 10
