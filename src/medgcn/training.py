"""Losses, cross regularization, and the full-batch training loop.

The combined objective is  L = L_M + lambda * L_L  where L_M is a
class-reweighted binary cross entropy over training encounters'
medication rows and L_L is a mask-screened squared error over observed
lab entries.  Single-task modes put only one loss in the objective; the
epoch log holds both, each read from the epoch's training forward, so a
logged loss is that of the model the epoch started from, under the
epoch's dropout.

Training computes L_M in logit space (medication_logit_loss), on the
medication head's logits, so it stays finite where a probability would
round to 0 or 1; the probability-space loss_medication, with its guard
against such probabilities, is the reference the logit-space loss is
checked against.  Each loss is one tape node whose constants are built
once per run.

Training is full batch: one forward over the whole training-view graph
per epoch, validation on the validation rows after every step, the best
epoch's weights kept by copy, early stop after `patience` epochs without
strict improvement.

The epochs compute in float32 (TRAIN_DTYPE), which takes about 0.4x the
float64 epoch CPU time (measurements in CHANGES.md): train casts the initialized weights, the training view and
the loss constants once per run, and the autodiff follows their dtype.
The model train returns has float64 weights holding those float32 values,
so checkpoints, evaluation and inference stay float64.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .errors import (
    NumericGuardError,
    ParameterError,
    ShapeError,
    TrainingError,
)
from .graph import (
    IMPUTATION_TASK,
    MEDICATION_TASK,
    MedGraph,
    SplitPlan,
    apply_split_masking,
    refit_lab_normalization,
)
from .metrics import (
    MetricEntry,
    baseline_column_mean,
    baseline_popularity,
    lrap,
    masked_mse,
    rank_metrics,
)
from .model import (
    Hyper,
    MedGcnModel,
    Membership,
    TypedGraphView,
    forward,
    init_model,
    make_view,
    model_from_bytes,
    model_to_bytes,
)
from .optim import Adam

TASK_BOTH = "both"
TASK_MEDICATION = "medication"
TASK_LAB = "lab"
TASK_MODES = (TASK_BOTH, TASK_MEDICATION, TASK_LAB)

METRIC_LRAP = "lrap"
METRIC_MSE = "mse"

# Training has diverged once an epoch's loss exceeds the first epoch's by
# this factor.  The logit-space loss stays finite however far the weights
# run off, so a non-finite loss alone no longer catches a runaway step size.
DIVERGENCE_FACTOR = 1e6

# The dtype the training epochs compute in.
TRAIN_DTYPE = np.float32


# mallopt parameters of glibc's <malloc.h>.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def keep_freed_heap() -> None:
    """Ask the C library's malloc to keep freed memory for reuse, process-wide.

    An epoch frees and re-allocates tens of MB of arrays, a serve
    query a few MB.  glibc by default maps arrays above a few MB afresh and
    returns the heap top to the kernel once a few MB of it lie free, so each
    epoch (about a fifth of its time) and each query (about 4,300 faults)
    re-faulted that memory page by page.  Arrays below 32 MB now come from
    the heap, which keeps up to 256 MB free.  No-op without mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)


@dataclass(frozen=True)
class TrainConfig:
    lam: float = 1.0
    lr: float = 0.001
    max_epochs: int = 1000
    patience: int = 50
    seed: int = 0
    task_mode: str = TASK_BOTH
    val_metric: str = ""  # empty selects per task_mode: lrap, or mse for lab-only

    def validate(self) -> None:
        # Chained so that NaN, which fails every comparison, is rejected too.
        if not 0.0 <= self.lam < np.inf:
            raise ParameterError(f"lambda must be a finite number >= 0, got {self.lam}")
        if not 0.0 < self.lr < np.inf:
            raise ParameterError(f"learning rate must be a finite number > 0, got {self.lr}")
        if self.max_epochs < 1:
            raise ParameterError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if not 1 <= self.patience <= self.max_epochs:
            raise ParameterError(
                f"patience must be in 1..max_epochs, got {self.patience} with max_epochs {self.max_epochs}"
            )
        if self.task_mode not in TASK_MODES:
            raise ParameterError(f"task_mode must be one of {TASK_MODES}, got {self.task_mode!r}")
        if self.resolved_metric() not in (METRIC_LRAP, METRIC_MSE):
            raise ParameterError(f"val_metric must be lrap or mse, got {self.val_metric!r}")

    def resolved_metric(self) -> str:
        if self.val_metric:
            return self.val_metric
        return METRIC_MSE if self.task_mode == TASK_LAB else METRIC_LRAP


@dataclass(frozen=True)
class ClassWeight:
    """Negative/positive cell counts of the training-view medication
    matrix; the positive BCE term is scaled by their ratio."""

    n_neg: int
    n_pos: int

    @property
    def weight(self) -> float:
        if self.n_pos <= 0:
            raise ParameterError("class weight undefined: no positive medication edges in training view")
        return self.n_neg / self.n_pos

    @classmethod
    def from_matrix(cls, a_em: np.ndarray) -> "ClassWeight":
        n_pos = int(np.count_nonzero(a_em))
        return cls(n_neg=a_em.size - n_pos, n_pos=n_pos)


@dataclass
class EpochRecord:
    epoch: int
    loss_med: float
    loss_lab: float
    val_metric: float


@dataclass
class TrainReport:
    val_metric_name: str
    maximize: bool
    epochs: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0
    best_val: float = float("nan")
    untrained_val: float = float("nan")
    stop_reason: str = ""

    def to_tsv(self) -> str:
        lines = ["epoch\tloss_med\tloss_lab\tval_metric"]
        for r in self.epochs:
            lines.append(f"{r.epoch}\t{r.loss_med!r}\t{r.loss_lab!r}\t{r.val_metric!r}")
        return "\n".join(lines) + "\n"


def _guard_open_interval(p: np.ndarray) -> None:
    if np.any(p == 0.0) or np.any(p == 1.0):
        raise NumericGuardError(
            "probabilities saturated to exactly 0 or 1; the log loss needs open-interval values"
        )


def loss_medication(
    p: Tensor,
    targets: np.ndarray,
    weight: float,
    row_mask: Optional[np.ndarray] = None,
) -> Tensor:
    """Class-weighted BCE over the rows in row_mask (default all), divided
    by the number of included rows."""
    targets = np.asarray(targets, dtype=np.float64)
    if p.shape != targets.shape:
        raise ShapeError(f"predictions {p.shape} and targets {targets.shape} must match")
    _guard_open_interval(p.values)
    if row_mask is None:
        rows = np.ones(p.rows)
        n_rows = p.rows
    else:
        rows = np.zeros(p.rows)
        rows[np.asarray(row_mask, dtype=int)] = 1.0
        n_rows = int(rows.sum())
    if n_rows == 0:
        raise ParameterError("medication loss needs at least one included row")
    sel = rows[:, None]
    pos_coef = Tensor(sel * weight * targets)
    neg_coef = Tensor(sel * (1.0 - targets))
    ones = Tensor(np.ones(p.shape))
    inner = ad.add(ad.mul(pos_coef, ad.log(p)), ad.mul(neg_coef, ad.log(ad.sub(ones, p))))
    return ad.scale(ad.tensor_sum(inner), -1.0 / n_rows)


def medication_logit_loss(
    targets: np.ndarray, weight: float, rows: np.ndarray
) -> Callable[[Tensor], Tensor]:
    """loss_medication over the distinct rows in rows as a function of the
    logits Z, not of P = sigmoid(Z), so it stays finite where P would round
    to 0 or 1.  The constants are built here once; each call of the returned
    function adds one tape node.  The constants keep the dtype of targets
    (float32, or float64 for any other)."""
    targets = ad.float_array(targets)
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        raise ParameterError("medication loss needs at least one included row")
    y = targets[rows]
    neg_coef, pos_coef = 1.0 - y, 1.0 + (float(weight) - 1.0) * y

    def loss(z: Tensor) -> Tensor:
        if z.shape != targets.shape:
            raise ShapeError(f"logits {z.shape} and targets {targets.shape} must match")
        return ad.logistic_loss(z, rows, neg_coef, pos_coef, 1.0 / rows.size)

    return loss


def loss_lab(v: Tensor, targets: np.ndarray, mask: np.ndarray) -> Tensor:
    """Mask-screened squared error divided by v's encounter rows, as one tape
    node; the mask takes the dtype of targets (float32, or float64 for any
    other)."""
    targets = ad.float_array(targets)
    mask = np.asarray(mask, dtype=targets.dtype)
    if not v.shape == targets.shape == mask.shape:
        raise ShapeError(f"values {v.shape}, targets {targets.shape}, mask {mask.shape} must match")
    return ad.masked_square_error(v, targets, mask, 1.0 / v.rows)


def loss_combined(l_med: Tensor, l_lab: Tensor, lam: float) -> Tensor:
    if lam == 0.0:
        return l_med
    return ad.add(l_med, ad.scale(l_lab, lam))


def _objective_terms(task_mode: str, lam: float) -> tuple[bool, bool]:
    """Whether the medication loss and the lab loss enter the objective.  A
    zero lambda drops the lab term entirely, making both-mode training
    identical to medication-only."""
    return task_mode != TASK_LAB, task_mode == TASK_LAB or (task_mode == TASK_BOTH and lam > 0.0)


def active_parameters(model: MedGcnModel, task_mode: str, lam: float = 1.0) -> list[Tensor]:
    """Layer weights always train; a head trains only when its loss term is
    in the objective, so the idle head provably receives no updates."""
    med_in_loss, lab_in_loss = _objective_terms(task_mode, lam)
    params = [layer[t] for layer in model.layers for t in ("encounter", "patient", "lab", "medication")]
    if med_in_loss:
        params.extend([model.head_med_w, model.head_med_b])
    if lab_in_loss:
        params.extend([model.head_lab_w, model.head_lab_b])
    return params


@dataclass
class TrainingData:
    """Everything the epoch loop needs, prepared once.  lab_targets is
    full.a_el; the training loss reads it through view.m_el only."""

    view: MedGraph
    full: MedGraph
    lab_targets: np.ndarray
    train_rows: np.ndarray
    val_rows: np.ndarray
    val_edge_mask: np.ndarray
    class_weight: Optional[ClassWeight]


def _edge_mask(graph: MedGraph, edges: np.ndarray) -> np.ndarray:
    """0/1 float matrix over the lab cells marking the (n, 2) edges."""
    mask = np.zeros(graph.m_el.shape)
    if len(edges):
        mask[edges[:, 0], edges[:, 1]] = 1.0
    return mask


def prepare_training_data(
    graph: MedGraph, plan_med: SplitPlan, plan_lab: SplitPlan
) -> TrainingData:
    """Refit lab normalization on training-visible edges, then mask both
    tasks' held-out targets out of the training view."""
    if plan_med.task != MEDICATION_TASK or plan_lab.task != IMPUTATION_TASK:
        raise ParameterError("plan_med must be a medication plan and plan_lab an imputation plan")
    full = refit_lab_normalization(graph, plan_lab)
    view = apply_split_masking(apply_split_masking(full, plan_med), plan_lab)
    cw = ClassWeight.from_matrix(view.a_em)
    return TrainingData(
        view=view,
        full=full,
        lab_targets=full.a_el,
        train_rows=plan_med.train,
        val_rows=plan_med.val,
        val_edge_mask=_edge_mask(graph, plan_lab.val),
        class_weight=cw if cw.n_pos > 0 else None,
    )


def to_train_dtype(model: MedGcnModel) -> MedGcnModel:
    """Cast every weight of model to TRAIN_DTYPE in place; returns model."""
    for t in model.parameters():
        t.values = t.values.astype(TRAIN_DTYPE)
    return model


def training_view(view: TypedGraphView) -> TypedGraphView:
    """view with its dense adjacencies and membership row scales in
    TRAIN_DTYPE; the epochs' products then run in that dtype."""

    def cast(adj):
        if not isinstance(adj, Membership):
            return adj.astype(TRAIN_DTYPE)
        if adj.row_scale is None:
            return adj
        return replace(adj, row_scale=adj.row_scale.astype(TRAIN_DTYPE))

    return TypedGraphView(view.types, view.counts, {pair: cast(adj) for pair, adj in view.adjacency.items()})


def _validation(
    config: TrainConfig, data: TrainingData
) -> tuple[np.ndarray, Callable[[np.ndarray, np.ndarray], float]]:
    """The encounter rows the validation metric reads (medication validation
    rows for LRAP, encounters of lab validation edges for MSE) and the metric
    of head outputs p, v on those rows; a split leaving none is rejected."""
    if config.resolved_metric() == METRIC_LRAP:
        relevance = data.full.a_em[data.val_rows]
        if not relevance.any():
            raise ParameterError(
                f"the {MEDICATION_TASK} validation split has no prescription for lrap; change --split")
        return data.val_rows, lambda p, v: lrap(p, relevance)
    rows = np.flatnonzero(data.val_edge_mask.any(axis=1))
    if rows.size == 0:
        raise ParameterError(
            f"the {IMPUTATION_TASK} validation split has no lab observation for mse; change --split")
    targets, mask = data.lab_targets[rows], data.val_edge_mask[rows]
    return rows, lambda p, v: masked_mse(v, targets, mask)


def train(
    graph: MedGraph,
    plan_med: SplitPlan,
    plan_lab: SplitPlan,
    config: TrainConfig,
    hyper: Optional[Hyper] = None,
) -> tuple[MedGcnModel, TrainReport]:
    """Full training run; returns the best-validation-epoch model.

    The dropout rate lives in the model hyperparameters; `hyper` defaults
    to Hyper().
    """
    config.validate()
    hyper = hyper if hyper is not None else Hyper()
    hyper.validate()
    keep_freed_heap()
    data = prepare_training_data(graph, plan_med, plan_lab)
    med_in_loss, lab_in_loss = _objective_terms(config.task_mode, config.lam)
    if med_in_loss and data.class_weight is None:
        raise ParameterError("medication loss active but the training view has no positive edges")
    val_rows, validate = _validation(config, data)

    model = init_model(graph, hyper, config.seed)
    maximize = config.resolved_metric() == METRIC_LRAP
    report = TrainReport(val_metric_name=config.resolved_metric(), maximize=maximize)

    # The untrained forward runs on the float64 initialization and takes
    # the MedGraph: the benchmark tracer (perfbench/tracing.py) keys
    # products by the last MedGraph that forward saw.
    p0, v0, _ = forward(model, data.view)
    report.untrained_val = validate(p0.values[val_rows], v0.values[val_rows])

    # Cast once, before Adam's moments and the best-epoch copies are made
    # from the weights.  The epochs reuse one view, so the lab matrix is
    # normalized once per run.
    to_train_dtype(model)
    params = active_parameters(model, config.task_mode, config.lam)
    opt = Adam(params, lr=config.lr)
    drop_rng = np.random.default_rng(config.seed)
    view = training_view(make_view(data.view, hyper.normalize_adjacency))
    med_loss = None
    if data.class_weight is not None:
        med_loss = medication_logit_loss(
            data.view.a_em.astype(TRAIN_DTYPE), data.class_weight.weight, data.train_rows)
    lab_targets = data.lab_targets.astype(TRAIN_DTYPE)
    lab_mask = data.view.m_el.astype(TRAIN_DTYPE)
    # The best epoch's weights are copied into arrays allocated once; the
    # checkpoint image is written once, after the loop.
    best_values = [t.values.copy() for t in model.parameters()]
    best_val = -np.inf if maximize else np.inf
    best_epoch = 0

    for epoch in range(1, config.max_epochs + 1):
        with Tape() as tape:
            # In training mode forward's first output is the medication logits.
            z_med, v, _ = forward(model, view, training=True, rng=drop_rng)
            l_med = med_loss(z_med) if med_in_loss else None
            l_lab = loss_lab(v, lab_targets, lab_mask) if lab_in_loss else None
            if l_med is None or l_lab is None:
                loss = l_lab if l_med is None else l_med
            else:
                loss = loss_combined(l_med, l_lab, config.lam)
        # The idle task's loss is logged from the same forward, off the tape.
        if l_med is None and med_loss is not None:
            l_med = med_loss(z_med)
        if l_lab is None:
            l_lab = loss_lab(v, lab_targets, lab_mask)
        loss_value = loss.item()
        if not np.isfinite(loss_value):
            raise TrainingError(f"training diverged: non-finite loss at epoch {epoch}")
        if epoch == 1:
            first_loss = loss_value
        elif loss_value > DIVERGENCE_FACTOR * first_loss:
            raise TrainingError(
                f"training diverged: loss {loss_value:.6g} at epoch {epoch} is over "
                f"{DIVERGENCE_FACTOR:g} times the first epoch's {first_loss:.6g}; lower --lr"
            )
        tape.backward(loss)
        opt.step()

        p_val, v_val, _ = forward(model, view, rows=val_rows)
        val_value = validate(p_val.values, v_val.values)
        loss_med_val = float(l_med.item()) if l_med is not None else float("nan")
        report.epochs.append(EpochRecord(epoch, loss_med_val, float(l_lab.item()), val_value))

        improved = val_value > best_val if maximize else val_value < best_val
        if improved:
            best_val = val_value
            best_epoch = epoch
            for saved, t in zip(best_values, model.parameters()):
                np.copyto(saved, t.values)
        if epoch - best_epoch >= config.patience:
            report.stop_reason = "patience"
            break
    else:
        report.stop_reason = "max_epochs"

    report.best_epoch = best_epoch
    report.best_val = float(best_val) if np.isfinite(best_val) else float("nan")
    for saved, t in zip(best_values, model.parameters()):
        t.values = saved
    return model_from_bytes(model_to_bytes(model)), report


def evaluate_split(
    model: MedGcnModel,
    graph: MedGraph,
    plan_med: SplitPlan,
    plan_lab: SplitPlan,
    k: int = 2,
) -> list[MetricEntry]:
    """Held-out metrics plus reference baselines on the same test targets.

    The model sees only the training view (both tasks' targets masked);
    ranking metrics read the med rows of test encounters, the squared
    error reads the lab edges the imputation plan held out for test.
    """
    data = prepare_training_data(graph, plan_med, plan_lab)
    p, v, _ = forward(model, data.view, training=False)

    test_rows = plan_med.test
    truth = data.full.a_em[test_rows]
    ranking = rank_metrics(p.values[test_rows], truth, k=k)
    pop = baseline_popularity(data.view.a_em, eval_rows=test_rows)
    pop_ranking = rank_metrics(pop, truth, k=k)

    edge_mask = _edge_mask(graph, plan_lab.test)
    n_edges = int(edge_mask.sum())
    mse = masked_mse(v.values, data.lab_targets, edge_mask)
    col_mean = baseline_column_mean(data.lab_targets, data.view.m_el, n_rows=graph.n_encounters)
    baseline_mse = masked_mse(col_mean, data.lab_targets, edge_mask)

    n_scored = ranking.n_rows_scored
    return [
        MetricEntry("lrap", ranking.lrap, n_scored),
        MetricEntry("map_at_k", ranking.map_at_k, n_scored, k=k),
        MetricEntry("masked_mse", mse, n_edges),
        MetricEntry("baseline_popularity_lrap", pop_ranking.lrap, n_scored),
        MetricEntry("baseline_popularity_map_at_k", pop_ranking.map_at_k, n_scored, k=k),
        MetricEntry("baseline_column_mean_mse", baseline_mse, n_edges),
    ]
