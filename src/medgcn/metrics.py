"""Ranking and imputation metrics plus the two shipped baselines.

Ranking conventions, fixed for determinism:
  - LRAP resolves tied scores by average rank.
  - MAP@k cuts the top-k after a stable sort, so ties break by ordinal.
  - Rows with no relevant label are excluded from averages and counted.

Row contributions accumulate in row order and per-label terms in label
order, so results are reproducible to the bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import MetricError, ParameterError, ShapeError

MAP_NORMALIZERS = ("min", "k")


def _check_pair(scores: np.ndarray, relevance: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=np.float64)
    relevance = np.asarray(relevance)
    if scores.ndim != 2 or scores.shape != relevance.shape:
        raise ShapeError(f"scores {scores.shape} and relevance {relevance.shape} must be equal 2-D shapes")
    return scores, relevance


def _ranked_rows(scores: np.ndarray, relevance: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row with a relevant label: its label order by descending score (stable,
    so ties keep ordinal order), and its scores and relevance in that order."""
    rel = relevance == 1
    keep = rel.any(axis=1)
    if not keep.any():
        raise MetricError("no row has a relevant label")
    scores = scores[keep]
    order = np.argsort(-scores, axis=1, kind="stable")
    return order, np.take_along_axis(scores, order, axis=1), np.take_along_axis(rel[keep], order, axis=1)


def _mean_in_row_order(values: np.ndarray) -> float:
    """Mean of values summed from 0.0 in order (np.sum would pair terms up)."""
    return float(np.cumsum(values)[-1]) / values.size


def lrap(scores, relevance) -> float:
    """Label ranking average precision.

    Per row, each relevant label j contributes (number of relevant labels
    ranked at or above j) / rank(j), ranks descending by score with a tie
    group at sorted positions start..end (0-based) sharing the rank
    (start + end + 2) / 2; the row averages its labels and rows average
    into the result.
    """
    scores, relevance = _check_pair(scores, relevance)
    order, ordered, rel = _ranked_rows(scores, relevance)
    n, width = ordered.shape
    pos = np.arange(width)
    # new[:, j] marks a tie group starting at position j; new[:, width] closes the last.
    new = np.ones((n, width + 1), dtype=bool)
    new[:, 1:width] = ordered[:, 1:] != ordered[:, :-1]
    starts = np.maximum.accumulate(np.where(new[:, :-1], pos, 0), axis=1)
    ends = np.minimum.accumulate(np.where(new[:, 1:], pos, width)[:, ::-1], axis=1)[:, ::-1]
    at_or_above = np.take_along_axis(np.cumsum(rel, axis=1), ends, axis=1)
    terms = np.zeros(ordered.shape)
    np.put_along_axis(terms, order, np.where(rel, at_or_above / ((starts + ends + 2) / 2.0), 0.0), axis=1)
    # cumsum adds a row's terms one label at a time, in label order.
    return _mean_in_row_order(np.cumsum(terms, axis=1)[:, -1] / rel.sum(axis=1))


def map_at_k(scores, relevance, k: int, normalizer: str = "min") -> float:
    """Mean average precision truncated at rank k.

    normalizer "min" divides each row's precision sum by min(k, number of
    relevant labels); "k" always divides by k.
    """
    scores, relevance = _check_pair(scores, relevance)
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if normalizer not in MAP_NORMALIZERS:
        raise ParameterError(f"normalizer must be one of {MAP_NORMALIZERS}, got {normalizer!r}")
    _, _, rel = _ranked_rows(scores, relevance)
    hits = rel[:, :k]
    precision = np.cumsum(hits, axis=1) / np.arange(1, hits.shape[1] + 1)
    ap = np.cumsum(np.where(hits, precision, 0.0), axis=1)[:, -1]
    return _mean_in_row_order(ap / (np.minimum(k, rel.sum(axis=1)) if normalizer == "min" else k))


def count_scorable_rows(relevance) -> int:
    relevance = np.asarray(relevance)
    return int(np.sum(relevance.sum(axis=1) > 0))


@dataclass(frozen=True)
class RankingResult:
    lrap: float
    map_at_k: float
    k: int
    n_rows_scored: int
    n_rows_skipped: int


def rank_metrics(scores, relevance, k: int = 2) -> RankingResult:
    scores, relevance = _check_pair(scores, relevance)
    scored = count_scorable_rows(relevance)
    return RankingResult(
        lrap=lrap(scores, relevance),
        map_at_k=map_at_k(scores, relevance, k),
        k=k,
        n_rows_scored=scored,
        n_rows_skipped=relevance.shape[0] - scored,
    )


def masked_mse(values, targets, eval_mask) -> float:
    """Mean squared error over exactly the edges marked in eval_mask."""
    values = np.asarray(values, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    eval_mask = np.asarray(eval_mask, dtype=np.float64)
    if not values.shape == targets.shape == eval_mask.shape:
        raise ShapeError(
            f"values {values.shape}, targets {targets.shape}, mask {eval_mask.shape} must match"
        )
    n = eval_mask.sum()
    if n == 0:
        raise MetricError("evaluation mask selects no edges")
    return float(np.sum(eval_mask * (values - targets) ** 2) / n)


def baseline_popularity(train_a_em: np.ndarray, eval_rows: Optional[Sequence[int]] = None) -> np.ndarray:
    """Rank medications by training prescription frequency, identically for
    every evaluated encounter."""
    train_a_em = np.asarray(train_a_em, dtype=np.float64)
    freq = train_a_em.sum(axis=0)
    n_rows = train_a_em.shape[0] if eval_rows is None else len(eval_rows)
    return np.tile(freq, (n_rows, 1))


def baseline_column_mean(
    train_a_el: np.ndarray,
    train_m_el: np.ndarray,
    n_rows: Optional[int] = None,
) -> np.ndarray:
    """Predict every entry of a lab column as that column's training mean,
    falling back to 0.5 for labs never observed in training."""
    train_a_el = np.asarray(train_a_el, dtype=np.float64)
    train_m_el = np.asarray(train_m_el, dtype=np.float64)
    if train_a_el.shape != train_m_el.shape:
        raise ShapeError(f"values {train_a_el.shape} and mask {train_m_el.shape} must match")
    counts = train_m_el.sum(axis=0)
    sums = (train_a_el * train_m_el).sum(axis=0)
    means = np.divide(sums, counts, out=np.full_like(sums, 0.5), where=counts > 0)
    rows = train_a_el.shape[0] if n_rows is None else n_rows
    return np.tile(means, (rows, 1))


@dataclass(frozen=True)
class MetricEntry:
    name: str
    value: float
    n: int
    k: Optional[int] = None


def format_metric_report(entries: Sequence[MetricEntry]) -> str:
    """Human-readable flat key-value block."""
    lines = []
    for e in entries:
        suffix = f"  (n={e.n}" + (f", k={e.k})" if e.k is not None else ")")
        lines.append(f"{e.name} = {e.value:.6f}{suffix}")
    return "\n".join(lines) + "\n"


def metric_report_json(entries: Sequence[MetricEntry]) -> str:
    """Machine-readable report: exact float values, stable key order."""
    payload = {
        "metrics": [
            {"name": e.name, "value": e.value, "n": e.n, "k": e.k} for e in entries
        ]
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
