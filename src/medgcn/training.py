"""Losses, cross regularization, and the full-batch training loop.

The combined objective is  L = L_M + lambda * L_L  where L_M is a
class-reweighted binary cross entropy over training encounters'
medication rows and L_L is a mask-screened squared error over observed
lab entries.  Single-task modes wire only one loss into the tape; the
other is still computed gradient-free for the epoch log.

Training is full batch: one forward over the whole training-view graph
per epoch, validation after every epoch, best checkpoint kept as bytes,
early stop after `patience` epochs without strict improvement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .errors import (
    MetricError,
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
from .model import Hyper, MedGcnModel, forward, init_model, make_view, model_from_bytes, model_to_bytes
from .optim import Adam

TASK_BOTH = "both"
TASK_MEDICATION = "medication"
TASK_LAB = "lab"
TASK_MODES = (TASK_BOTH, TASK_MEDICATION, TASK_LAB)

METRIC_LRAP = "lrap"
METRIC_MSE = "mse"


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
        if self.lam < 0.0:
            raise ParameterError(f"lambda must be nonnegative, got {self.lam}")
        if self.lr <= 0.0:
            raise ParameterError(f"learning rate must be positive, got {self.lr}")
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


def loss_lab(v: Tensor, targets: np.ndarray, mask: np.ndarray) -> Tensor:
    """Mask-screened squared error divided by the number of encounter rows."""
    targets = np.asarray(targets, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    if not v.shape == targets.shape == mask.shape:
        raise ShapeError(f"values {v.shape}, targets {targets.shape}, mask {mask.shape} must match")
    diff = ad.sub(v, Tensor(targets))
    masked = ad.mul(Tensor(mask), ad.mul(diff, diff))
    return ad.scale(ad.tensor_sum(masked), 1.0 / v.rows)


def loss_combined(l_med: Tensor, l_lab: Tensor, lam: float) -> Tensor:
    if lam == 0.0:
        return l_med
    return ad.add(l_med, ad.scale(l_lab, lam))


def active_parameters(model: MedGcnModel, task_mode: str, lam: float = 1.0) -> list[Tensor]:
    """Layer weights always train; a head trains only when its loss term is
    in the objective, so the idle head provably receives no updates.  A
    zero lambda drops the lab term entirely, making both-mode wiring
    identical to medication-only."""
    params = []
    for layer in model.layers:
        params.extend(layer[t] for t in ("encounter", "patient", "lab", "medication"))
    if task_mode in (TASK_BOTH, TASK_MEDICATION):
        params.extend([model.head_med_w, model.head_med_b])
    if task_mode == TASK_LAB or (task_mode == TASK_BOTH and lam > 0.0):
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


def _validation_value(
    config: TrainConfig, data: TrainingData, p: np.ndarray, v: np.ndarray
) -> float:
    if config.resolved_metric() == METRIC_LRAP:
        return lrap(p[data.val_rows], data.full.a_em[data.val_rows])
    return masked_mse(v, data.lab_targets, data.val_edge_mask)


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
    data = prepare_training_data(graph, plan_med, plan_lab)
    med_active = config.task_mode in (TASK_BOTH, TASK_MEDICATION)
    lab_in_loss = config.task_mode == TASK_LAB or (
        config.task_mode == TASK_BOTH and config.lam > 0.0
    )
    if med_active and data.class_weight is None:
        raise ParameterError("medication loss active but the training view has no positive edges")

    model = init_model(graph, hyper, config.seed)
    params = active_parameters(model, config.task_mode, config.lam)
    opt = Adam(params, lr=config.lr)
    drop_rng = np.random.default_rng(config.seed)

    maximize = config.resolved_metric() == METRIC_LRAP
    report = TrainReport(val_metric_name=config.resolved_metric(), maximize=maximize)

    # The epochs reuse one view, so the lab matrix is normalized once per
    # run.  The untrained forward still takes the MedGraph: the benchmark
    # tracer (perfbench/tracing.py) keys products by the last MedGraph
    # that forward saw.
    p0, v0, _ = forward(model, data.view)
    view = make_view(data.view, hyper.normalize_adjacency)
    try:
        report.untrained_val = _validation_value(config, data, p0.values, v0.values)
    except MetricError:
        report.untrained_val = float("nan")

    weight = data.class_weight.weight if data.class_weight is not None else float("nan")
    best_bytes = model_to_bytes(model)
    best_val = -np.inf if maximize else np.inf
    best_epoch = 0

    for epoch in range(1, config.max_epochs + 1):
        l_med_t: Optional[Tensor] = None
        l_lab_t: Optional[Tensor] = None
        with Tape() as tape:
            p, v, _ = forward(model, view, training=True, rng=drop_rng)
            if med_active:
                l_med_t = loss_medication(p, data.view.a_em, weight, data.train_rows)
            if lab_in_loss:
                l_lab_t = loss_lab(v, data.lab_targets, data.view.m_el)
            if med_active and lab_in_loss:
                loss = loss_combined(l_med_t, l_lab_t, config.lam)
            else:
                loss = l_med_t if med_active else l_lab_t
        loss_value = loss.item()
        if not np.isfinite(loss_value):
            raise TrainingError(f"training diverged: non-finite loss at epoch {epoch}")
        tape.backward(loss)
        opt.step()

        p_eval, v_eval, _ = forward(model, view)
        # Both component losses go in the log even when only one trains;
        # the inactive one is computed gradient-free from the post-step
        # evaluation forward.
        if l_med_t is not None:
            loss_med_val = float(l_med_t.item())
        elif data.class_weight is not None:
            loss_med_val = float(
                loss_medication(p_eval, data.view.a_em, data.class_weight.weight, data.train_rows).item()
            )
        else:
            loss_med_val = float("nan")
        if l_lab_t is not None:
            loss_lab_val = float(l_lab_t.item())
        else:
            loss_lab_val = float(loss_lab(v_eval, data.lab_targets, data.view.m_el).item())
        val_value = _validation_value(config, data, p_eval.values, v_eval.values)
        report.epochs.append(EpochRecord(epoch, loss_med_val, loss_lab_val, val_value))

        improved = val_value > best_val if maximize else val_value < best_val
        if improved:
            best_val = val_value
            best_epoch = epoch
            best_bytes = model_to_bytes(model)
        if epoch - best_epoch >= config.patience:
            report.stop_reason = "patience"
            break
    else:
        report.stop_reason = "max_epochs"

    report.best_epoch = best_epoch
    report.best_val = float(best_val) if np.isfinite(best_val) else float("nan")
    return model_from_bytes(best_bytes), report


def evaluate_split(
    model: MedGcnModel,
    graph: MedGraph,
    plan_med: SplitPlan,
    plan_lab: SplitPlan,
    k: int = 2,
    normalizer: str = "min",
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
    ranking = rank_metrics(p.values[test_rows], truth, k=k, normalizer=normalizer)
    pop = baseline_popularity(data.view.a_em, eval_rows=test_rows)
    pop_ranking = rank_metrics(pop, truth, k=k, normalizer=normalizer)

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
