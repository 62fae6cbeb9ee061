"""Span tracing of medgcn's public functions, installed from outside the program.

The medgcn modules import names from each other directly, so a function is
wrapped at every binding its callers look up at call time (for example
``medgcn.training.forward`` as well as ``medgcn.model.forward``).  Each wrapper
records a span ``[name, start_ns, end_ns, parent, op]`` in memory; nothing is
written until the run ends.  The wrappers pass arguments and results through
untouched, so traced and untraced calls produce the same bytes.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import Counter, defaultdict

FORWARD = "model.forward"
MATMUL = "autodiff.matmul"
NORMALIZE_LAB = "graph.normalize_lab"
EPOCH = "training.epoch"
TRAIN = "training.train"
CLI_MAIN = "cli.main"

# (owner, attribute, span name).  An owner is a module path, or a module path
# and a class name joined by ":".  Spans named FORWARD are split into
# model.forward_train / model.forward_eval by their ``training`` argument, and
# MATMUL spans are keyed by which adjacency or head the product applies.
BINDINGS = (
    ("medgcn.cli", "main", CLI_MAIN),
    ("medgcn.cli", "load_csv_bundle", "data_io.load_csv_bundle"),
    ("medgcn.cli", "load_model", "model.load_model"),
    ("medgcn.cli", "train", TRAIN),
    ("medgcn.cli", "evaluate_split", "training.evaluate_split"),
    ("medgcn.cli", "forward", FORWARD),
    ("medgcn.data_io", "read_bundle_records", "data_io.read_bundle_records"),
    ("medgcn.data_io", "build_graph", "graph.build_graph"),
    ("medgcn.graph", "add_encounter", "graph.add_encounter"),
    ("medgcn.training", "prepare_training_data", "training.prepare_training_data"),
    ("medgcn.training", "refit_lab_normalization", "graph.refit_lab_normalization"),
    ("medgcn.training", "apply_split_masking", "graph.apply_split_masking"),
    ("medgcn.training", "loss_medication", "training.loss_medication"),
    ("medgcn.training", "loss_lab", "training.loss_lab"),
    ("medgcn.training", "forward", FORWARD),
    ("medgcn.training", "model_to_bytes", "model.model_to_bytes"),
    ("medgcn.training", "lrap", "metrics.lrap"),
    ("medgcn.training", "masked_mse", "metrics.masked_mse"),
    ("medgcn.metrics", "lrap", "metrics.lrap"),
    ("medgcn.metrics", "map_at_k", "metrics.map_at_k"),
    ("medgcn.model", "forward", FORWARD),
    ("medgcn.model", "inductive_embed", "model.inductive_embed"),
    ("medgcn.model", "model_to_bytes", "model.model_to_bytes"),
    ("medgcn.autodiff", "matmul", MATMUL),
    ("medgcn.autodiff", "sigmoid", "autodiff.sigmoid"),
    ("medgcn.autodiff:Tape", "backward", "autodiff.backward"),
    ("medgcn.optim:Adam", "step", "optim.adam_step"),
)

# Called tens of thousands of times per lab-range fit: counted, not spanned.
COUNTED = (("medgcn.graph", "normalize_lab", NORMALIZE_LAB),)

MATMUL_KEYS = ("a_ep", "a_el", "a_em", "head")


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Span recorder whose wrappers are installed only around traced work."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.tape_nodes: list[int] = []
        self.resident_bytes = 0
        self.op = -1
        self._stack: list[int] = []
        self._inner_keys: dict[int, str] = {}
        self._originals: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in BINDINGS:
            self._patch(_resolve(owner), attr, self._spanned(name))
        for owner, attr, name in COUNTED:
            self._patch(_resolve(owner), attr, self._counted(name))

    def uninstall(self) -> None:
        while self._originals:
            target, attr, original = self._originals.pop()
            setattr(target, attr, original)

    def _patch(self, target, attr: str, make_wrapper) -> None:
        original = getattr(target, attr)
        self._originals.append((target, attr, original))
        setattr(target, attr, functools.wraps(original)(make_wrapper(original)))

    def _counted(self, name: str):
        counts = self.counts

        def make(original):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            return wrapper
        return make

    def _spanned(self, name: str):
        def make(original):
            def wrapper(*args, **kwargs):
                span_name = self._before(name, args, kwargs)
                with self.span(span_name):
                    result = original(*args, **kwargs)
                if name == "graph.build_graph":
                    self.note_graph(result)
                return result
            return wrapper
        return make

    def _before(self, name: str, args, kwargs) -> str:
        if name == FORWARD:
            model, graph = args[0], args[1]
            if hasattr(graph, "n_patients"):
                self._inner_keys = {
                    graph.n_patients: "a_ep",
                    graph.n_labs: "a_el",
                    graph.n_medications: "a_em",
                    model.hyper.hidden_dim: "head",
                }
            return "model.forward_train" if kwargs.get("training", False) else "model.forward_eval"
        if name == MATMUL:
            (m, k), n = args[0].shape, args[1].shape[1]
            key = self._inner_keys.get(k, "other")
            self.counts[f"{MATMUL}.{key}_flops"] += 2 * m * k * n
            return f"{MATMUL}.{key}"
        if name == "autodiff.backward":
            self.tape_nodes.append(len(args[0]))
        return name

    # -- recording ----------------------------------------------------------

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def note_graph(self, graph) -> None:
        """Keep the largest graph seen, sized from its arrays."""
        size = sum(
            getattr(graph, name).nbytes
            for name in ("a_ep", "a_el", "m_el", "a_em", "raw_el", "lab_norm")
        )
        self.resident_bytes = max(self.resident_bytes, size)


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        parent = t._stack[-1] if t._stack else -1
        t.spans.append([self.name, time.perf_counter_ns(), 0, parent, t.op])
        t._stack.append(self.index)

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][2] = time.perf_counter_ns()
        t._stack.pop()
        return False


# -- analysis ---------------------------------------------------------------


def derive_epochs(spans: list[list]) -> None:
    """Add one training.epoch span per epoch and re-parent its work under it.

    An epoch starts at a training-mode forward call made directly by
    training.train and ends where the next one starts, or where train ends.
    """
    children = defaultdict(list)
    for i, span in enumerate(spans):
        children[span[3]].append(i)
    for ti in range(len(spans)):
        if spans[ti][0] != TRAIN:
            continue
        _, _, train_end, _, op = spans[ti]
        starts = [i for i in children[ti] if spans[i][0] == "model.forward_train"]
        for n, fi in enumerate(starts):
            begin = spans[fi][1]
            end = spans[starts[n + 1]][1] if n + 1 < len(starts) else train_end
            epoch = len(spans)
            spans.append([EPOCH, begin, end, ti, op])
            for ci in children[ti]:
                if begin <= spans[ci][1] < end:
                    spans[ci][3] = epoch


def nesting_violations(spans: list[list]) -> list[str]:
    """Spans that start before or end after the span that caused them."""
    bad = []
    for span in spans:
        name, start, end, parent, _ = span
        if end < start:
            bad.append(f"{name} ends before it starts")
        if parent >= 0:
            p_name, p_start, p_end, _, _ = spans[parent]
            if not (p_start <= start and end <= p_end):
                bad.append(f"{name} is not inside its parent {p_name}")
    return bad


def self_times_ns(spans: list[list]) -> list[int]:
    covered = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]


def tail(samples) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile).  With ten samples or fewer that percentile does not
    exist, and the maximum is reported as the 100th."""
    ordered = sorted(samples)
    n = len(ordered)
    if n > 10:
        return ordered[n - 11], 100.0 * (n - 10) / n
    return ordered[-1], 100.0


# Spans reported as per-call median time plus calls per workload operation.
TIMED = (
    "data_io.read_bundle_records",
    "graph.build_graph",
    "graph.refit_lab_normalization",
    "graph.apply_split_masking",
    "training.prepare_training_data",
    "training.loss_medication",
    "training.loss_lab",
    "model.forward_train",
    "model.forward_eval",
    "model.inductive_embed",
    "model.load_model",
    "model.model_to_bytes",
    *(f"{MATMUL}.{key}" for key in MATMUL_KEYS),
    "autodiff.sigmoid",
    "autodiff.backward",
    "optim.adam_step",
    "metrics.lrap",
    "metrics.map_at_k",
    "metrics.masked_mse",
)
# Spans whose tail is reported beside the median.
WITH_TAIL = ("graph.add_encounter", EPOCH)


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, float]:
    """Per-layer figures from the spans of n_ops traced operations.

    Times are medians per call in ms; ``_calls``, ``_flops`` and
    ``normalize_lab_calls`` are per workload operation.  A function the
    workload never calls reads 0.
    """
    spans = tracer.spans
    own = self_times_ns(spans)
    durations = defaultdict(list)
    selfs = defaultdict(list)
    for i, (name, start, end, _, _) in enumerate(spans):
        durations[name].append(end - start)
        selfs[name].append(own[i])

    def ms(values) -> float:
        return statistics.median(values) / 1e6 if values else 0.0

    out: dict[str, float] = {}
    for name in TIMED + WITH_TAIL:
        values = durations[name]
        if name in WITH_TAIL:
            out[f"{name}_ms_p50"] = ms(values)
            out[f"{name}_ms_tail"] = tail(values)[0] / 1e6 if values else 0.0
        else:
            out[f"{name}_ms"] = ms(values)
        out[f"{name}_calls"] = len(values) / n_ops
    for key in MATMUL_KEYS:
        out[f"{MATMUL}.{key}_flops"] = tracer.counts[f"{MATMUL}.{key}_flops"] / n_ops
    out[f"{EPOCH}_self_ms"] = ms(selfs[EPOCH])
    out["cli.query_self_ms"] = ms(selfs[CLI_MAIN])
    out["cli.query_calls"] = len(durations[CLI_MAIN]) / n_ops
    out[f"{NORMALIZE_LAB}_calls"] = tracer.counts[NORMALIZE_LAB] / n_ops
    out["autodiff.tape_nodes"] = statistics.median(tracer.tape_nodes) if tracer.tape_nodes else 0
    out["graph.resident_bytes"] = tracer.resident_bytes
    return out
