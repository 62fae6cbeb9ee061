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


def _average_ranks_desc(row: np.ndarray) -> np.ndarray:
    """1-based ranks by descending score; a tie group occupying sorted
    positions start..end (0-based) shares the rank (start + end + 2) / 2."""
    order = np.argsort(-row, kind="stable")
    ordered = row[order]
    first = np.empty(row.size, dtype=bool)
    first[:1] = True
    first[1:] = ordered[1:] != ordered[:-1]
    starts = np.flatnonzero(first)
    ends = np.append(starts[1:], row.size) - 1
    ranks = np.empty(row.size)
    ranks[order] = ((starts + ends + 2) / 2.0)[np.cumsum(first) - 1]
    return ranks


def lrap(scores, relevance) -> float:
    """Label ranking average precision.

    Per row, each relevant label j contributes (number of relevant labels
    ranked at or above j) / rank(j), ranks descending by score; the row
    averages its labels and rows average into the result.
    """
    scores, relevance = _check_pair(scores, relevance)
    total = 0.0
    n_rows = 0
    for i in range(scores.shape[0]):
        rel = np.flatnonzero(relevance[i] == 1)
        if rel.size == 0:
            continue
        rel_ranks = _average_ranks_desc(scores[i])[rel]
        contribs = (rel_ranks[None, :] <= rel_ranks[:, None]).sum(axis=1) / rel_ranks
        total += float(np.sum(contribs)) / rel.size
        n_rows += 1
    if n_rows == 0:
        raise MetricError("no row has a relevant label")
    return total / n_rows


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
    total = 0.0
    n_rows = 0
    for i in range(scores.shape[0]):
        rel = relevance[i]
        n_rel = int(np.sum(rel == 1))
        if n_rel == 0:
            continue
        order = np.argsort(-scores[i], kind="stable")
        hits = 0
        ap = 0.0
        for rank, j in enumerate(order[:k], start=1):
            if rel[j] == 1:
                hits += 1
                ap += hits / rank
        total += ap / (min(k, n_rel) if normalizer == "min" else k)
        n_rows += 1
    if n_rows == 0:
        raise MetricError("no row has a relevant label")
    return total / n_rows


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


def rank_metrics(scores, relevance, k: int = 2, normalizer: str = "min") -> RankingResult:
    scores, relevance = _check_pair(scores, relevance)
    scored = count_scorable_rows(relevance)
    return RankingResult(
        lrap=lrap(scores, relevance),
        map_at_k=map_at_k(scores, relevance, k, normalizer),
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
