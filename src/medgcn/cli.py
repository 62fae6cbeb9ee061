"""Command-line surface: synth, build-graph, stats, train, evaluate,
recommend, impute.

Exit codes: 0 success, 2 bad input or usage, 3 training divergence or a
numeric guard trip, 4 checkpoint unreadable or incompatible with the
graph, 5 unknown encounter or node lookup failure.

Human-readable text goes to standard output; machine-readable artifacts
(checkpoints, logs, reports, CSVs) go to files.  No output embeds
timestamps, so reruns with the same seed are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .data_io import (
    BUNDLE_FILES,
    denormalize_lab,
    export_predictions,
    load_csv_bundle,
    read_new_encounters,
    write_csv_bundle,
    write_ground_truth,
)
from .errors import (
    CheckpointError,
    GraphLookupError,
    IngestionError,
    MedGcnError,
    NumericGuardError,
    ParameterError,
    SplitError,
    TrainingError,
)
from .graph import (
    IMPUTATION_TASK,
    MEDICATION_TASK,
    MedGraph,
    NodeType,
    add_encounter,
    graph_stats,
    load_graph,
    make_split,
    save_graph,
)
from .metrics import format_metric_report, metric_report_json
from .model import Hyper, forward, load_model, save_model, verify_model_graph
from .synthetic import SyntheticSpec, generate_synthetic, parse_spec_text
from .training import (
    TASK_BOTH,
    TASK_LAB,
    TASK_MEDICATION,
    TrainConfig,
    evaluate_split,
    keep_freed_heap,
    train,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DIVERGED = 3
EXIT_CHECKPOINT = 4
EXIT_LOOKUP = 5

# Exit code of each error kind; the first match wins.
ERROR_EXITS = (
    (CheckpointError, EXIT_CHECKPOINT),
    (GraphLookupError, EXIT_LOOKUP),
    ((TrainingError, NumericGuardError), EXIT_DIVERGED),
    ((MedGcnError, OSError), EXIT_USAGE),
)

TASK_FLAGS = {"both": TASK_BOTH, "med": TASK_MEDICATION, "lab": TASK_LAB}


def parse_split_flag(text: str) -> tuple[float, float, float]:
    """"0.8,0.1" means 80% train+val (10% of which is val) and 20% test,
    so the three-way ratios are (0.72, 0.08, 0.20)."""
    parts = text.split(",")
    if len(parts) != 2:
        raise ParameterError(f"--split wants two comma-separated fractions, got {text!r}")
    try:
        a, b = (float(p) for p in parts)
    except ValueError:
        raise ParameterError(f"--split fractions must be numeric, got {text!r}") from None
    if not (0.0 < a < 1.0 and 0.0 < b < 1.0):
        raise ParameterError(f"--split fractions must lie in (0, 1), got {text!r}")
    return (a * (1.0 - b), a * b, 1.0 - a)


def _load_graph_arg(args) -> MedGraph:
    if getattr(args, "graph", None):
        return load_graph(args.graph)
    return load_csv_bundle(args.data)


def _make_plans(graph: MedGraph, split_text: str, seed: int):
    ratios = parse_split_flag(split_text)
    plan_med = make_split(graph, MEDICATION_TASK, ratios, seed)
    try:
        plan_lab = make_split(graph, IMPUTATION_TASK, ratios, seed)
    except SplitError as exc:
        raise SplitError(
            f"{exc}; train and evaluate always build the {IMPUTATION_TASK} split, "
            "so the bundle needs at least 3 lab observations even with --task med"
        ) from None
    return plan_med, plan_lab


def _print_stats(graph: MedGraph) -> None:
    stats = graph_stats(graph)
    print(
        f"nodes: {graph.n_encounters} encounters, {graph.n_patients} patients, "
        f"{graph.n_labs} labs, {graph.n_medications} medications"
    )
    for m in stats.matrices:
        print(
            f"{m.name:7s} {m.rows:6d} x {m.cols:<5d} edges {m.edges:8d} "
            f"sparsity {100.0 * m.sparsity:6.2f}%"
        )


def cmd_synth(args) -> int:
    if args.spec:
        path = Path(args.spec)
        if not path.is_file():
            raise IngestionError(f"missing spec file {path}")
        spec = parse_spec_text(path.read_text(encoding="utf-8"))
    else:
        spec = SyntheticSpec()
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    spec.validate()
    cohort = generate_synthetic(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv_bundle(cohort.graph, out)
    write_ground_truth(out, cohort.graph.registry, cohort.true_labs, cohort.med_propensity)
    print(f"wrote cohort to {out}")
    _print_stats(cohort.graph)
    return EXIT_OK


def cmd_build_graph(args) -> int:
    graph = load_csv_bundle(args.data)
    save_graph(graph, args.out)
    # Blank lines are skipped and repeated rows rejected, so each file's row
    # count is its node or edge count.
    counts = (graph.n_patients, graph.n_encounters, np.count_nonzero(graph.m_el), np.count_nonzero(graph.a_em))
    for name, count in zip(BUNDLE_FILES, counts):
        print(f"{name}: {count} rows")
    print(f"graph fingerprint {graph.fingerprint()}")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_stats(args) -> int:
    _print_stats(_load_graph_arg(args))
    return EXIT_OK


def cmd_train(args) -> int:
    graph = load_csv_bundle(args.data)
    plan_med, plan_lab = _make_plans(graph, args.split, args.seed)
    config = TrainConfig(
        lam=getattr(args, "lambda"),
        lr=args.lr,
        max_epochs=args.epochs,
        patience=args.patience,
        seed=args.seed,
        task_mode=TASK_FLAGS[args.task],
    )
    hyper = Hyper(hidden_dim=args.hidden, dropout=args.dropout)
    model, report = train(graph, plan_med, plan_lab, config, hyper)
    save_model(model, args.out)
    log_path = args.log if args.log else args.out + ".log.tsv"
    Path(log_path).write_text(report.to_tsv(), encoding="utf-8")
    print(
        f"trained {len(report.epochs)} epochs, stopped on {report.stop_reason}; "
        f"best epoch {report.best_epoch}"
    )
    print(f"val {report.val_metric_name}: untrained {report.untrained_val:.6f} "
          f"best {report.best_val:.6f}")
    print(f"checkpoint {args.out}")
    print(f"log {log_path}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    graph = load_csv_bundle(args.data)
    model = load_model(args.checkpoint)
    verify_model_graph(model, graph)
    plan_med, plan_lab = _make_plans(graph, args.split, args.split_seed)
    entries = evaluate_split(model, graph, plan_med, plan_lab, k=args.k)
    print(format_metric_report(entries))
    report_path = args.report if args.report else args.checkpoint + ".eval.json"
    Path(report_path).write_text(metric_report_json(entries), encoding="utf-8")
    print(f"report {report_path}")
    return EXIT_OK


def _predict_encounter(args) -> tuple[MedGraph, np.ndarray, np.ndarray, int]:
    """Shared recommend/impute pipeline: returns the (possibly grown) graph,
    the encounter's medication probabilities and lab values, and its ordinal.

    Appending encounters leaves the patient, lab and medication nodes and
    the trained encounter prefix as they were, so one checkpoint check
    before the append covers the grown graph too.
    """
    if args.inductive != (args.new_rows is not None):
        raise ParameterError("--inductive and --new-rows DIR go together: DIR holds the new encounter rows")
    graph = load_csv_bundle(args.data)
    model = load_model(args.checkpoint)
    verify_model_graph(model, graph)
    if args.inductive:
        for eid, pid, labs in read_new_encounters(args.new_rows, graph.registry.ids(NodeType.ENCOUNTER)):
            add_encounter(graph, pid, labs, encounter_id=eid)
    ordinal = graph.registry.ordinal(NodeType.ENCOUNTER, args.encounter)
    p, v, _ = forward(model, graph, training=False, rows=[ordinal])
    return graph, p.values[0], v.values[0], ordinal


def _maybe_export(args, graph, p_row, v_row, ordinal) -> None:
    if args.out:
        export_predictions(
            p_row[None, :], v_row[None, :], graph, args.out,
            encounter_ordinals=np.array([ordinal]),
        )
        print(f"wrote {args.out}")


def cmd_recommend(args) -> int:
    graph, p_row, v_row, ordinal = _predict_encounter(args)
    med_ids = graph.registry.ids(NodeType.MEDICATION)
    print(f"encounter {args.encounter}: medications by predicted probability")
    order = np.argsort(-p_row, kind="stable")
    for rank, j in enumerate(order, start=1):
        print(f"{rank:3d}  {med_ids[j]:<16s} {p_row[j]:.6f}")
    _maybe_export(args, graph, p_row, v_row, ordinal)
    return EXIT_OK


def cmd_impute(args) -> int:
    graph, p_row, v_row, ordinal = _predict_encounter(args)
    lab_ids = graph.registry.ids(NodeType.LAB)
    a_row = graph.lab_rows(ordinal)
    print(f"encounter {args.encounter}: lab values (normalized, original units)")
    for j, code in enumerate(lab_ids):
        observed = graph.m_el[ordinal, j]
        norm = a_row[j] if observed else v_row[j]
        original = graph.raw_el[ordinal, j] if observed else denormalize_lab(norm, j, graph.lab_norm)
        flag = "observed" if observed else "imputed"
        print(f"{code:<16s} {norm:10.6f} {original:14.6f}  {flag}")
    _maybe_export(args, graph, p_row, v_row, ordinal)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="medgcn",
        description="Heterogeneous-graph model for medication recommendation and lab imputation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic cohort CSV bundle")
    p.add_argument("--spec", help="key=value spec file; defaults used when omitted")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the spec seed")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("build-graph", help="ingest a CSV bundle and serialize the graph")
    p.add_argument("--data", required=True, help="bundle directory")
    p.add_argument("--out", required=True, help="output graph file")
    p.set_defaults(func=cmd_build_graph)

    p = sub.add_parser("stats", help="node counts, edge counts, and sparsity")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--data", help="bundle directory")
    src.add_argument("--graph", help="serialized graph file")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("train", help="split, mask, and train; write checkpoint + epoch log")
    p.add_argument("--data", required=True, help="bundle directory")
    p.add_argument("--task", choices=sorted(TASK_FLAGS), default="both")
    p.add_argument("--lambda", type=float, default=1.0, dest="lambda",
                   help="weight of the lab loss in the combined objective")
    p.add_argument("--hidden", type=int, default=300, help="embedding width")
    p.add_argument("--dropout", type=float, default=0.1)
    p.add_argument("--lr", type=float, default=0.001)
    p.add_argument("--epochs", type=int, default=1000, help="epoch budget")
    p.add_argument("--patience", type=int, default=50,
                   help="stop after this many epochs without validation improvement")
    p.add_argument("--seed", type=int, default=0, help="drives split, init, and dropout")
    p.add_argument("--split", default="0.8,0.1",
                   help="trainval fraction, then val fraction within trainval")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--log", default=None, help="epoch log path (default: <out>.log.tsv)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="held-out metrics for a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="bundle directory")
    p.add_argument("--split-seed", type=int, default=0, dest="split_seed",
                   help="seed the training split was built with")
    p.add_argument("--split", default="0.8,0.1")
    p.add_argument("--k", type=int, default=2, help="cutoff for precision at k")
    p.add_argument("--report", default=None, help="JSON report path (default: <checkpoint>.eval.json)")
    p.set_defaults(func=cmd_evaluate)

    for name, func in (("recommend", cmd_recommend), ("impute", cmd_impute)):
        p = sub.add_parser(name, help=f"{name} for one encounter")
        p.add_argument("--checkpoint", required=True)
        p.add_argument("--data", required=True, help="bundle directory")
        p.add_argument("--encounter", required=True, help="encounter id")
        p.add_argument("--inductive", action="store_true",
                       help="embed a new encounter from --new-rows without retraining")
        p.add_argument("--new-rows", default=None, dest="new_rows",
                       help="directory with encounters.csv (+ lab_results.csv) for new encounters")
        p.add_argument("--out", default=None, help="also write prediction CSVs to this directory")
        p.set_defaults(func=func)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    keep_freed_heap()
    try:
        return args.func(args)
    except (MedGcnError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in ERROR_EXITS if isinstance(exc, kinds))


if __name__ == "__main__":
    sys.exit(main())
