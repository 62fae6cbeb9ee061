"""Set-up and measurement stages of the medgcn benchmark, one process each.

    python3 perfbench/stage.py setup   WORKLOAD SEED WORKDIR REPEATS
    python3 perfbench/stage.py measure WORKLOAD SEED WORKDIR SECONDS TRACE OUT

run.py starts both with the BLAS thread count pinned to one.  The set-up
stage writes the generated inputs into an emptied WORKDIR REPEATS times and
prints the wall time of each as a JSON list; the measure stage loads them,
runs the workload as a closed loop (one client, the next call starts when the
previous one returns) for SECONDS, checks every output, and writes a JSON
result to OUT.  The program only ever receives the generated inputs: CSV
directories, a checkpoint, encounter IDs and new-encounter rows.
"""

from __future__ import annotations

import time

# Set-up time counts the measure stage's imports and state loading from here.
_STARTED = time.perf_counter()

import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from medgcn import cli  # noqa: E402
from medgcn import graph as graph_mod  # noqa: E402
from medgcn import model as model_mod  # noqa: E402
from medgcn.data_io import load_csv_bundle, write_csv_bundle  # noqa: E402
from medgcn.graph import (  # noqa: E402
    IMPUTATION_TASK,
    MEDICATION_TASK,
    NodeType,
    load_graph,
    make_split,
    save_graph,
)
from medgcn.synthetic import SyntheticSpec, generate_synthetic  # noqa: E402
from medgcn.training import TrainConfig, train  # noqa: E402

import tracing  # noqa: E402

# Epoch budget of the train workload, with patience equal to it so every
# call runs it in full.  At 70 epochs the default cohort clears the bars of
# acceptance criterion 6 on every seed tried; at 40, seed 0 misses the
# imputation bar.
TRAIN_EPOCHS = 70
# Bars of acceptance criterion 6 that the train workload's report must meet.
LRAP_MARGIN = 0.05
MSE_RATIO = 0.8
# The serve and stream checkpoints only need to exist; their quality does
# not change the work a query or an arrival does.
SETUP_EPOCHS = 1
SPLIT = "0.8,0.1"  # the cli default
SERVE_ENCOUNTERS = 64
SERVE_QUERIES = 2000
# Arrivals per stream pass.  Every pass replays the same arrivals on a fresh
# copy of the set-up graph, so each arrival meets the same graph size however
# fast the machine is.
STREAM_PASS = 100
STREAM_CHECKED = 10
# Acceptance criterion 4's tolerance for inductive against batch outputs.
INDUCTIVE_TOL = 1e-6
# recommend and impute print six decimals.
PRINT_TOL = 5e-7 + 1e-12


def call_cli(argv) -> tuple[int, str, str]:
    """cli.main looked up at call time, so a traced run reaches its wrapper;
    returns the exit code, standard output and standard error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main([str(a) for a in argv])
    return rc, out.getvalue(), err.getvalue()


# -- set-up ------------------------------------------------------------------


def setup(workload: str, seed: int, work: Path) -> None:
    """The default cohort under the seed as a CSV bundle; for serve and
    stream also a checkpoint and the workload's inputs.  Library calls
    throughout, so the CSVs are read once and no ground-truth sidecars are
    written."""
    cohort = work / "cohort"
    spec = dataclasses.replace(SyntheticSpec(), seed=seed)
    write_csv_bundle(generate_synthetic(spec).graph, cohort)
    if workload == "train":
        return
    graph = load_csv_bundle(cohort)
    ratios = cli.parse_split_flag(SPLIT)
    plan_med = make_split(graph, MEDICATION_TASK, ratios, seed)
    plan_lab = make_split(graph, IMPUTATION_TASK, ratios, seed)
    config = TrainConfig(max_epochs=SETUP_EPOCHS, patience=SETUP_EPOCHS, seed=seed)
    model, _ = train(graph, plan_med, plan_lab, config)
    model_mod.save_model(model, work / "model.ckpt")
    rng = np.random.default_rng(seed)
    if workload == "serve":
        p, v, _ = model_mod.forward(model, graph)
        picks = np.sort(rng.choice(graph.n_encounters, SERVE_ENCOUNTERS, replace=False))
        np.savez(work / "reference.npz", p=p.values[picks], v=v.values[picks],
                 a_el=graph.a_el[picks], m_el=graph.m_el[picks])
        inputs = {
            "encounters": [graph.registry.id_at(NodeType.ENCOUNTER, int(i)) for i in picks],
            "queries": rng.integers(0, SERVE_ENCOUNTERS, SERVE_QUERIES).tolist(),
            "medications": list(graph.registry.ids(NodeType.MEDICATION)),
            "labs": list(graph.registry.ids(NodeType.LAB)),
        }
    else:
        save_graph(graph, work / "graph.bin")
        inputs = {"arrivals": new_encounters(graph, rng, STREAM_PASS)}
    (work / "inputs.json").write_text(json.dumps(inputs), encoding="utf-8")


def new_encounters(graph, rng, count: int) -> list[dict]:
    """Arrivals for known patients.  Each lab is observed at the cohort's own
    rate, with a value drawn from that lab's observed values."""
    observed = graph.m_el == 1.0
    rate = float(observed.mean())
    patients = graph.registry.ids(NodeType.PATIENT)
    labs = graph.registry.ids(NodeType.LAB)
    arrivals = []
    for k in range(count):
        chosen = np.flatnonzero(rng.random(graph.n_labs) < rate)
        values = [float(rng.choice(graph.raw_el[observed[:, j], j])) for j in chosen]
        arrivals.append({
            "encounter_id": f"S{k}",
            "patient_id": patients[int(rng.integers(len(patients)))],
            "labs": [[labs[j], value] for j, value in zip(chosen, values)],
        })
    return arrivals


# -- measurement -------------------------------------------------------------


class Run:
    """Samples, failures and the tracer of one measure stage."""

    def __init__(self, seconds: float, trace: bool):
        self.seconds = seconds
        self.trace = trace
        self.start = self._last = time.perf_counter()
        self.ops = 0
        self.failed = 0
        self.failures: list[str] = []
        self.op_ms: list[float] = []
        self.traced_ms: list[float] = []
        self.tracer = tracing.Tracer()

    def more(self, done: int, minimum: int) -> bool:
        """Whether to start another unit of work (an operation, or a stream
        pass): yes below the minimum, else only if one more unit as long as
        the last still ends within the measured seconds."""
        now = time.perf_counter()
        last, self._last = now - self._last, now
        return done < minimum or now - self.start + last <= self.seconds

    @contextlib.contextmanager
    def traced(self, on: bool):
        if not on:
            yield
            return
        self.tracer.op = self.ops
        self.tracer.install()
        try:
            with self.tracer.span("bench.op"):
                yield
        finally:
            self.tracer.uninstall()

    def record(self, ms: float, traced: bool, problems: list[str]) -> None:
        self.ops += 1
        (self.traced_ms if traced else self.op_ms).append(ms)
        self.fail(problems)

    def fail(self, problems: list[str]) -> None:
        """Count an operation as failed; a check made after the operation
        was recorded lands here too."""
        if problems:
            self.failed += 1
            self.failures.extend(problems[:3])


def read(path: Path) -> bytes:
    return path.read_bytes() if path.is_file() else b""


def measure_train(run: Run, seed: int, work: Path) -> dict:
    cohort = work / "cohort"
    train_ms, eval_ms = [], []
    reference: dict[str, bytes] = {}
    report = {}
    k = 0
    # Two cycles at least, so each run's median and peak memory cover the same
    # work even when one cycle takes more than half of the measured seconds.
    while run.more(k, 2):
        traced = run.trace and k % 2 == 1
        out = work / f"op{k}"
        out.mkdir()
        ckpt = out / "model.ckpt"
        with run.traced(traced):
            t0 = time.perf_counter()
            rc_train, _, _ = call_cli(["train", "--data", cohort, "--epochs", TRAIN_EPOCHS,
                                    "--patience", TRAIN_EPOCHS, "--seed", seed, "--out", ckpt])
            t1 = time.perf_counter()
            rc_eval, _, _ = call_cli(["evaluate", "--checkpoint", ckpt, "--data", cohort,
                                   "--split-seed", seed])
            t2 = time.perf_counter()
        problems = []
        if rc_train or rc_eval:
            problems.append(f"train exited {rc_train}, evaluate exited {rc_eval}")
        artifacts = {name: read(out / name)
                     for name in ("model.ckpt", "model.ckpt.log.tsv", "model.ckpt.eval.json")}
        if not reference:
            reference = artifacts
            problems += criterion6(artifacts["model.ckpt.eval.json"], report)
        for name, blob in artifacts.items():
            if blob != reference[name]:
                problems.append(f"{name} of op {k} differs from op 0 ({'traced' if traced else 'untraced'})")
        if k:
            shutil.rmtree(out)
        if not traced:
            train_ms.append((t1 - t0) * 1e3)
            eval_ms.append((t2 - t1) * 1e3)
        run.record((t2 - t0) * 1e3, traced, problems)
        k += 1
    return {
        "train_s": median_of(train_ms, "s", 1e-3),
        "evaluate_s": median_of(eval_ms, "s", 1e-3),
        "test_lrap": {"value": report.get("lrap", float("nan")), "unit": "lrap"},
        "test_mse": {"value": report.get("masked_mse", float("nan")), "unit": "mse"},
    }


def criterion6(blob: bytes, report: dict) -> list[str]:
    try:
        report.update({m["name"]: m["value"] for m in json.loads(blob)["metrics"]})
        lrap, pop = report["lrap"], report["baseline_popularity_lrap"]
        mse, col = report["masked_mse"], report["baseline_column_mean_mse"]
    except (ValueError, KeyError) as exc:
        return [f"evaluate report unreadable: {exc!r}"]
    problems = []
    if not lrap >= pop + LRAP_MARGIN:
        problems.append(f"lrap {lrap:.6f} < popularity {pop:.6f} + {LRAP_MARGIN}")
    if not mse <= MSE_RATIO * col:
        problems.append(f"masked_mse {mse:.6f} > {MSE_RATIO} x column mean {col:.6f}")
    return problems


def measure_serve(run: Run, seed: int, work: Path) -> dict:
    inputs = json.loads((work / "inputs.json").read_text(encoding="utf-8"))
    ref = np.load(work / "reference.npz")
    encounters, queries = inputs["encounters"], inputs["queries"]
    meds = {code: j for j, code in enumerate(inputs["medications"])}
    labs = {code: j for j, code in enumerate(inputs["labs"])}
    base = ["--checkpoint", work / "model.ckpt", "--data", work / "cohort", "--encounter"]
    i = 0
    while run.more(i, 4 if run.trace else 1):
        row = queries[i % len(queries)]
        command = ("recommend", "impute")[i % 2]
        traced = run.trace and (i // 2) % 2 == 1
        with run.traced(traced):
            t0 = time.perf_counter()
            rc, text, err = call_cli([command, *base, encounters[row]])
            t1 = time.perf_counter()
        if rc:
            problems = [f"exited {rc}: {err.strip()[:200]}"]
        elif command == "recommend":
            problems = check_recommend(text, ref["p"][row], meds)
        else:
            problems = check_impute(text, ref, row, labs)
        run.record((t1 - t0) * 1e3, traced, [f"{command} {encounters[row]}: {p}" for p in problems])
        i += 1
    return {"query_ms_p50": median_of(run.op_ms, "ms"), "query_ms_tail": tail_of(run.op_ms, "ms")}


def check_recommend(text: str, p_ref: np.ndarray, meds: dict) -> list[str]:
    rows = [line.split() for line in text.splitlines()[1:]]
    if len(rows) != len(meds) or any(len(r) != 3 for r in rows):
        return [f"expected {len(meds)} ranked medications"]
    probs = [float(r[2]) for r in rows]
    problems = []
    if sorted({r[1] for r in rows}) != sorted(meds):
        problems.append("medication list differs")
    elif max(abs(p - p_ref[meds[r[1]]]) for p, r in zip(probs, rows)) > PRINT_TOL:
        problems.append("printed probabilities differ from the batch forward")
    if any(a < b for a, b in zip(probs, probs[1:])):
        problems.append("ranking is not in descending probability")
    return problems


def check_impute(text: str, ref, row: int, labs: dict) -> list[str]:
    rows = [line.split() for line in text.splitlines()[1:]]
    if len(rows) != len(labs) or any(len(r) != 4 or r[0] not in labs for r in rows):
        return [f"expected {len(labs)} lab lines"]
    problems = []
    for code, norm, _, flag in rows:
        j = labs[code]
        observed = ref["m_el"][row, j] == 1.0
        want = ref["a_el"][row, j] if observed else ref["v"][row, j]
        if flag != ("observed" if observed else "imputed"):
            problems.append(f"lab {code} flagged {flag}")
        elif abs(float(norm) - want) > PRINT_TOL:
            problems.append(f"lab {code} value {norm} differs from the batch forward {want:.6f}")
    return problems


def measure_stream(run: Run, seed: int, work: Path, model, graph) -> dict:
    arrivals = json.loads((work / "inputs.json").read_text(encoding="utf-8"))["arrivals"]
    checked = set(np.random.default_rng(seed).choice(len(arrivals), STREAM_CHECKED, replace=False).tolist())
    add_ms, embed_ms = [], []
    n = 0
    while run.more(n, 2 if run.trace else 1):
        traced = run.trace and n % 2 == 1
        if n:
            graph = load_graph(work / "graph.bin")
        n0 = graph.n_encounters
        outputs = {}
        for k, a in enumerate(arrivals):
            with run.traced(traced):
                t0 = time.perf_counter()
                ordinal = graph_mod.add_encounter(graph, a["patient_id"], a["labs"], encounter_id=a["encounter_id"])
                t1 = time.perf_counter()
                p_row, v_row = model_mod.inductive_embed(model, graph, ordinal)
                t2 = time.perf_counter()
            problems = [] if ordinal == n0 + k else [f"arrival {k} got ordinal {ordinal}, want {n0 + k}"]
            run.record((t2 - t0) * 1e3, traced, problems)
            if k in checked and not problems:
                outputs[k] = (p_row, v_row)
            if not traced:
                add_ms.append((t1 - t0) * 1e3)
                embed_ms.append((t2 - t1) * 1e3)
        if traced:
            run.tracer.note_graph(graph)
        p, v, _ = model_mod.forward(model, graph)
        for k, (p_row, v_row) in outputs.items():
            i = n0 + k
            err = max(np.max(np.abs(p.values[i] - p_row)), np.max(np.abs(v.values[i] - v_row)))
            if not err <= INDUCTIVE_TOL:
                run.fail([f"arrival {k}: inductive differs from batch forward by {err:.3g}"])
        n += 1
    return {
        "encounter_ms_p50": median_of(run.op_ms, "ms"),
        "encounter_ms_tail": tail_of(run.op_ms, "ms"),
        "add_encounter_ms_p50": median_of(add_ms, "ms"),
        "inductive_embed_ms_p50": median_of(embed_ms, "ms"),
    }


def median_of(samples, unit: str, scale: float = 1.0) -> dict:
    return {"value": statistics.median(samples) * scale, "unit": unit, "samples": len(samples)}


def tail_of(samples, unit: str, scale: float = 1.0) -> dict:
    value, pct = tracing.tail(samples)
    return {"value": value * scale, "unit": unit, "percentile": pct, "samples": len(samples)}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": __import__("scipy").__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def measure(workload: str, seed: int, work: Path, seconds: float, trace: bool, spans_out: Path) -> dict:
    if workload == "stream":
        state = (model_mod.load_model(work / "model.ckpt"), load_graph(work / "graph.bin"))
    load_s = time.perf_counter() - _STARTED
    run = Run(seconds, trace)
    if workload == "train":
        named = measure_train(run, seed, work)
    elif workload == "serve":
        named = measure_serve(run, seed, work)
    else:
        named = measure_stream(run, seed, work, *state)
    op_ms = run.op_ms
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    named["op_ms_p50"] = median_of(op_ms, "ms")
    named["op_ms_tail"] = tail_of(op_ms, "ms")
    named["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    result = {
        "attempted": run.ops,
        "failed": run.failed,
        "failures": run.failures[:20],
        "load_s": load_s,
        "end_to_end": {
            "op_ms_p50": named["op_ms_p50"]["value"],
            "op_ms_tail": named["op_ms_tail"]["value"],
            "peak_rss_mb": peak_rss_mb,
        },
        "named": named,
        "environment": environment(),
        "op_ms": op_ms,
    }
    if trace:
        spans = run.tracer.spans
        tracing.derive_epochs(spans)
        bad = tracing.nesting_violations(spans)
        if bad:
            result["failed"] += 1
            result["failures"] += bad[:5]
        traced_ops = len({s[4] for s in spans})
        layers = tracing.layer_metrics(run.tracer, traced_ops)
        layers["trace.overhead_ms"] = statistics.median(run.traced_ms) - statistics.median(op_ms)
        result["per_layer"] = layers
        with open(spans_out, "w", encoding="utf-8") as f:
            for name, start, end, parent, op in spans:
                f.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                    "parent": parent, "op": op}) + "\n")
    return result


def main(argv) -> int:
    stage, workload, seed, work = argv[0], argv[1], int(argv[2]), Path(argv[3])
    if stage == "setup":
        times = []
        for _ in range(int(argv[4])):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir()
            t0 = time.perf_counter()
            setup(workload, seed, work)
            times.append(time.perf_counter() - t0)
        print(json.dumps(times))
        return 0
    seconds, trace, out = float(argv[4]), argv[5] == "1", Path(argv[6])
    result = measure(workload, seed, work, seconds, trace, out.with_suffix(".spans.jsonl"))
    out.write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
