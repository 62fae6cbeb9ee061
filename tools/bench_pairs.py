"""Alternating parent/change runs of the benchmark, written as a BENCH file.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload serve \
        --seeds 101-110 --seconds 36 --out BENCH_name.json [--claim serve:op_ms_p50]

DIR is the root of a checkout; each pair runs ``perfbench/run.py --trace 0``
once in each, with one seed per pair and the side that runs first
alternating.  Every end-to-end metric in BENCHMARK.json is recorded per pair,
with each side's median and quartiles, how many pairs the change won, and a
verdict: for the claimed metrics "gain" when the change wins at least 9/10 of
the pairs and the medians differ by more than the parent's interquartile
range; for every metric "regression" when the change's median is worse than
the parent's by more than the metric's bound, "unresolved" when the parent's
own spread is wider than the bound and not every change run beats every
parent run, and "holds" otherwise.  The file is rewritten after every pair.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One untraced benchmark run: its metrics and its environment."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode:
        tail = "\n".join(proc.stderr.strip().splitlines()[-20:])
        raise SystemExit(f"{checkout}: {workload} seed {seed} exited {proc.returncode}; its stderr ends:\n{tail}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["failed"]:
        raise SystemExit(f"{checkout}: {result['failed']} of {result['attempted']} {workload} operations failed")
    record = json.loads((checkout / ".perfbench_runs" / f"{workload}-seed{seed}-trace0.json").read_text())
    return {k: m["value"] for k, m in result["metrics"].items()}, record["environment"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(metric: dict, pairs: list[dict], claimed: bool) -> dict:
    sign = 1.0 if metric["better"] == "lower" else -1.0
    parent = [p["parent"] for p in pairs]
    change = [p["change"] for p in pairs]
    (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
    wins = sum(sign * (p["parent"] - p["change"]) > 0 for p in pairs)
    worse = sign * (cm - pm) / pm if pm else 0.0
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if claimed and wins >= 0.9 * len(pairs) and sign * (pm - cm) > p3 - p1:
        word = "gain"
    elif worse > metric["bound"]:
        word = "regression"
    elif pm and (p3 - p1) / pm > metric["bound"] and not all_better:
        word = "unresolved"
    else:
        word = "holds"
    return {"parent_q1_median_q3": [p1, pm, p3], "change_q1_median_q3": [c1, cm, c3],
            "change_wins": wins, "change_vs_parent_median": cm / pm if pm else None, "verdict": word}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workload", required=True, action="append")
    parser.add_argument("--seeds", required=True, help="first-last, one seed per pair")
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--claim", action="append", default=[], help="workload:metric claimed as a gain")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    first, last = (int(x) for x in args.seeds.split("-"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    doc = {"command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0",
           "seconds": args.seconds, "seeds": list(range(first, last + 1)), "environment": {}, "entries": []}
    for workload in args.workload:
        pairs: list[dict] = []
        for k, seed in enumerate(range(first, last + 1)):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            runs = {}
            for side in order:
                runs[side], env = run_once(getattr(args, side), workload, seed, args.seconds)
                doc["environment"] = env
            pairs.append({"seed": seed, "first": order[0], "parent": runs["parent"], "change": runs["change"]})
            doc["entries"] = [e for e in doc["entries"] if e["workload"] != workload]
            for metric in spec["end_to_end"]:
                name = metric["name"]
                entry_pairs = [{"seed": p["seed"], "first": p["first"], "parent": p["parent"][name],
                                "change": p["change"][name]} for p in pairs]
                entry = {"workload": workload, "metric": name, "unit": metric["unit"], "better": metric["better"],
                         "bound": metric["bound"], "pairs": entry_pairs}
                if len(entry_pairs) >= 2:
                    entry.update(verdict(metric, entry_pairs, f"{workload}:{name}" in args.claim))
                doc["entries"].append(entry)
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{m['name']} {runs['parent'][m['name']]:.4g} -> {runs['change'][m['name']]:.4g}"
                for m in spec["end_to_end"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
