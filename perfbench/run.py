"""medgcn benchmark.

    python3 perfbench/run.py --workload {train,serve,stream} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Sets the workload up SETUP_REPEATS times in
one process, then measures it in another, both with the BLAS thread count
pinned to one.  Prints a human-readable summary, then as its last line one
JSON object: the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1.  Each run's full result, with the software
environment, goes to .perfbench_runs/ in the checkout, and a traced run's
spans beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STAGE = Path(__file__).resolve().parent / "stage.py"
WORKLOADS = ("train", "serve", "stream")
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 60
# Beyond --seconds, the measure stage finishes the operation in flight (a
# train-and-evaluate cycle takes about 12 s) and analyses its spans.
MEASURE_SLACK_S = 45


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def run_stage(args: list, timeout: float) -> str:
    """Run one stage to completion and return its output."""
    proc = subprocess.Popen([sys.executable, str(STAGE), *map(str, args)], env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    try:
        output, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"stage {args[0]} took longer than {timeout} s") from None
    if proc.returncode != 0:
        raise BenchError(f"stage {args[0]} exited {proc.returncode}:\n{output.strip()}")
    return output


def load_spec() -> dict:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "medgcn" / "__init__.py").is_file() or not spec_path.is_file():
        raise BenchError(f"{ROOT} is not a medgcn checkout: src/medgcn or BENCHMARK.json is missing")
    return json.loads(spec_path.read_text(encoding="utf-8"))


def summary_lines(workload: str, result: dict, setup_samples: list[float]) -> list[str]:
    env = result["environment"]
    lines = ["environment: " + ", ".join(f"{k} {v}" for k, v in env.items())]
    setup = ", ".join(f"{s:.3f}" for s in setup_samples)
    lines.append(f"{workload}: setup_s = median of [{setup}] s + load {result['load_s']:.3f} s")
    for name, m in result["named"].items():
        extra = ""
        if "samples" in m:
            label = f"p{m['percentile']:.1f}" if "percentile" in m else "median"
            extra = f"  ({label} of {m['samples']})"
        lines.append(f"{workload}: {name} = {m['value']:.6g} {m['unit']}{extra}")
    rate = result["failed"] / result["attempted"]
    lines.append(f"{workload}: error_rate = {rate:.4g} ({result['failed']} of {result['attempted']} operations)")
    lines.extend(f"{workload}: FAILED {f}" for f in result["failures"])
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        runs = ROOT / ".perfbench_runs"
        runs.mkdir(exist_ok=True)
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        work = runs / f"work-{name}-{os.getpid()}"
        out = runs / f"{name}.json"
        try:
            output = run_stage(["setup", args.workload, args.seed, work, SETUP_REPEATS], SETUP_TIMEOUT_S)
            setup_samples = json.loads(output.strip().splitlines()[-1])
            run_stage(["measure", args.workload, args.seed, work, args.seconds, args.trace, out],
                      args.seconds + MEASURE_SLACK_S)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        result = json.loads(out.read_text(encoding="utf-8"))
        setup_s = statistics.median(setup_samples) + result["load_s"]
        values = result["per_layer"] if args.trace else {"setup_s": setup_s, **result["end_to_end"]}
        wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            raise BenchError(f"no value measured for {', '.join(missing)}")
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    result["setup_s"] = setup_s
    out.write_text(json.dumps(result, indent=1), encoding="utf-8")
    for line in summary_lines(args.workload, result, setup_samples):
        print(line)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
