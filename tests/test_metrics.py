"""Metric correctness against brute-force references and worked examples."""

import json

import numpy as np
import pytest

from medgcn.errors import MetricError, ParameterError, ShapeError
from medgcn.metrics import (
    MetricEntry,
    baseline_column_mean,
    baseline_popularity,
    format_metric_report,
    lrap,
    map_at_k,
    masked_mse,
    metric_report_json,
    rank_metrics,
)

from oracles import lrap_oracle, map_at_k_oracle


class TestLrap:
    def test_worked_example(self):
        # Relevant labels at ranks 1 and 3: (1/1 + 2/3) / 2 = 5/6.
        value = lrap([[0.9, 0.8, 0.7]], [[1, 0, 1]])
        assert value == pytest.approx(5.0 / 6.0, abs=1e-12)

    def test_perfect_ordering(self):
        value = lrap([[0.9, 0.8, 0.1, 0.2]], [[1, 1, 0, 0]])
        assert value == 1.0

    def test_worst_ordering(self):
        # Single relevant label ranked last out of 4.
        value = lrap([[0.9, 0.8, 0.7, 0.1]], [[0, 0, 0, 1]])
        assert value == pytest.approx(0.25)

    def test_constant_scores_use_average_rank(self):
        # All scores tie: every label has average rank (n+1)/2 = 2.5, so a
        # single relevant label scores 1/2.5 regardless of position.
        value = lrap([[0.5, 0.5, 0.5, 0.5]], [[0, 1, 0, 0]])
        assert value == pytest.approx(1.0 / 2.5)

    def test_rows_without_relevant_excluded(self):
        value = lrap([[0.9, 0.1], [0.3, 0.4]], [[1, 0], [0, 0]])
        assert value == 1.0

    def test_all_rows_empty_raises(self):
        with pytest.raises(MetricError):
            lrap([[0.9, 0.1]], [[0, 0]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            lrap([[0.9, 0.1]], [[1, 0, 0]])

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(0)
        scores = rng.random((20, 8))
        rel = (rng.random((20, 8)) < 0.3).astype(int)
        rel[rel.sum(axis=1) == 0, 0] = 1
        assert lrap(scores, rel) == pytest.approx(lrap(np.exp(3 * scores), rel), abs=1e-12)

    def test_exact_agreement_with_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            scores = np.round(rng.random((6, 5)), 2)  # rounding forces ties
            rel = (rng.random((6, 5)) < 0.4).astype(int)
            if not (rel.sum(axis=1) > 0).any():
                rel[0, 0] = 1
            assert lrap(scores, rel) == lrap_oracle(scores, rel)


def wide_draws(seed, count=150):
    """Score/relevance pairs up to 60 labels wide whose rows hold 9 or more
    relevant labels: long enough that a pairwise sum rounds differently
    from adding terms one at a time, as the oracles do."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        width = int(rng.integers(9, 61))
        scores = rng.random((8, width))
        if rng.random() < 0.5:
            scores = np.round(scores, 1)  # ties
        rel = rng.random((8, width)) < rng.uniform(0.1, 0.9)
        rel |= rng.permuted(np.tile(np.arange(width) < 9, (8, 1)), axis=1)
        yield scores, rel.astype(int)


class TestWideRows:
    def test_lrap_exact_agreement_with_oracle(self):
        for scores, rel in wide_draws(3):
            assert lrap(scores, rel) == lrap_oracle(scores, rel)

    def test_map_at_k_exact_agreement_with_oracle(self):
        for scores, rel in wide_draws(4, count=60):
            for k in (1, 2, 9, 25, 60):
                assert map_at_k(scores, rel, k) == map_at_k_oracle(scores, rel, k)
                assert map_at_k(scores, rel, k, "k") == map_at_k_oracle(scores, rel, k, "k")


class TestMapAtK:
    def test_worked_example(self):
        # Relevant {0, 2}, ranking [0, 1, 2], k=2: (1/2)(1 + 0) = 0.5.
        value = map_at_k([[0.9, 0.8, 0.7]], [[1, 0, 1]], k=2)
        assert value == 0.5

    def test_two_relevant_in_top_two(self):
        assert map_at_k([[0.9, 0.8, 0.1]], [[1, 1, 0]], k=2) == 1.0

    def test_nothing_relevant_in_top_k(self):
        assert map_at_k([[0.9, 0.8, 0.1]], [[0, 0, 1]], k=2) == 0.0

    def test_normalizer_flag(self):
        # One relevant label found at rank 1 with k=2: "min" divides by 1,
        # plain "k" divides by 2.
        scores, rel = [[0.9, 0.1, 0.2]], [[1, 0, 0]]
        assert map_at_k(scores, rel, k=2, normalizer="min") == 1.0
        assert map_at_k(scores, rel, k=2, normalizer="k") == 0.5

    def test_ties_break_by_ordinal(self):
        # Identical scores: the stable sort keeps ordinal order, so the
        # relevant label at column 0 is inside the top-2 cut and the one at
        # column 2 is not.
        assert map_at_k([[0.5, 0.5, 0.5]], [[1, 0, 0]], k=2) == 1.0
        assert map_at_k([[0.5, 0.5, 0.5]], [[0, 0, 1]], k=2) == 0.0

    def test_k_validation(self):
        with pytest.raises(ParameterError):
            map_at_k([[0.5]], [[1]], k=0)
        with pytest.raises(ParameterError):
            map_at_k([[0.5]], [[1]], k=2, normalizer="bogus")

    def test_k_larger_than_labels(self):
        assert map_at_k([[0.9, 0.1]], [[0, 1]], k=10) == pytest.approx(0.5)

    def test_exact_agreement_with_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            scores = np.round(rng.random((6, 5)), 2)
            rel = (rng.random((6, 5)) < 0.4).astype(int)
            if not (rel.sum(axis=1) > 0).any():
                rel[0, 0] = 1
            for k in (1, 2, 4):
                assert map_at_k(scores, rel, k) == map_at_k_oracle(scores, rel, k)
                assert map_at_k(scores, rel, k, "k") == map_at_k_oracle(scores, rel, k, "k")


class TestRankMetricsBundle:
    def test_counts_scored_and_skipped(self):
        rel = [[1, 0], [0, 0], [1, 1]]
        scores = [[0.9, 0.1], [0.5, 0.6], [0.8, 0.7]]
        result = rank_metrics(scores, rel, k=2)
        assert result.n_rows_scored == 2
        assert result.n_rows_skipped == 1
        assert 0.0 <= result.lrap <= 1.0
        assert 0.0 <= result.map_at_k <= 1.0


class TestMaskedMse:
    def test_perfect_fit(self):
        v = np.random.default_rng(0).random((3, 4))
        m = np.ones((3, 4))
        assert masked_mse(v, v, m) == 0.0

    def test_single_edge(self):
        v, a = np.zeros((2, 2)), np.zeros((2, 2))
        v[0, 1], a[0, 1] = 0.19, 0.2
        m = np.zeros((2, 2))
        m[0, 1] = 1.0
        assert masked_mse(v, a, m) == pytest.approx(1e-4)

    def test_ignores_unmasked_positions(self):
        rng = np.random.default_rng(1)
        a = rng.random((4, 4))
        m = (rng.random((4, 4)) < 0.5).astype(float)
        m[0, 0] = 1.0
        v1 = a.copy()
        v2 = a + (1.0 - m) * 99.0
        assert masked_mse(v1, a, m) == masked_mse(v2, a, m)

    def test_uniform_half_vs_uniform_targets(self):
        rng = np.random.default_rng(2)
        a = rng.random((500, 40))
        m = np.ones_like(a)
        v = np.full_like(a, 0.5)
        assert masked_mse(v, a, m) == pytest.approx(1.0 / 12.0, abs=5e-3)

    def test_empty_mask_raises(self):
        with pytest.raises(MetricError):
            masked_mse(np.ones((2, 2)), np.ones((2, 2)), np.zeros((2, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            masked_mse(np.ones((2, 2)), np.ones((2, 2)), np.ones((2, 3)))


class TestBaselines:
    def test_popularity_scores_are_frequencies(self):
        train = np.array([[1, 0, 1], [1, 0, 0], [1, 1, 0]], dtype=float)
        scores = baseline_popularity(train, eval_rows=[0, 2])
        np.testing.assert_array_equal(scores, [[3, 1, 1], [3, 1, 1]])

    def test_popularity_most_prescribed_ranks_first(self):
        train = np.array([[1, 0], [1, 1]], dtype=float)
        scores = baseline_popularity(train)
        assert np.argmax(scores[0]) == 0

    def test_column_mean_values(self):
        a = np.array([[0.2, 0.0], [0.4, 0.0]])
        m = np.array([[1.0, 0.0], [1.0, 0.0]])
        pred = baseline_column_mean(a, m)
        np.testing.assert_allclose(pred[:, 0], 0.3)
        np.testing.assert_allclose(pred[:, 1], 0.5)  # unobserved fallback

    def test_column_mean_in_unit_interval(self):
        rng = np.random.default_rng(3)
        a = rng.random((30, 6))
        m = (rng.random((30, 6)) < 0.4).astype(float)
        pred = baseline_column_mean(a * m, m)
        assert np.all((pred >= 0.0) & (pred <= 1.0))


class TestReports:
    ENTRIES = [
        MetricEntry("lrap", 0.7374, n=252),
        MetricEntry("map_at_k", 0.724, n=252, k=2),
        MetricEntry("mse_test", 0.0229, n=1000),
    ]

    def test_text_block(self):
        text = format_metric_report(self.ENTRIES)
        assert "lrap = 0.737400  (n=252)" in text
        assert "map_at_k = 0.724000  (n=252, k=2)" in text
        assert text.endswith("\n")

    def test_json_parses_and_preserves_values(self):
        payload = json.loads(metric_report_json(self.ENTRIES))
        by_name = {m["name"]: m for m in payload["metrics"]}
        assert by_name["lrap"]["value"] == 0.7374
        assert by_name["map_at_k"]["k"] == 2
        assert by_name["mse_test"]["k"] is None

    def test_json_deterministic(self):
        assert metric_report_json(self.ENTRIES) == metric_report_json(self.ENTRIES)
