"""Loss definitions, cross-regularization wiring, and the training loop."""

import dataclasses

import numpy as np
import pytest

from medgcn.autodiff import Tape, Tensor
from medgcn.errors import NumericGuardError, ParameterError, TrainingError
from medgcn.graph import IMPUTATION_TASK, MEDICATION_TASK, make_split
from medgcn.model import Hyper, forward, init_model, model_to_bytes
from medgcn.training import (
    ClassWeight,
    TrainConfig,
    active_parameters,
    loss_combined,
    loss_lab,
    loss_medication,
    prepare_training_data,
    train,
)

from conftest import make_toy_graph

FAST = Hyper(hidden_dim=8, dropout=0.0)


def toy_plans(graph, seed=0):
    plan_med = make_split(graph, MEDICATION_TASK, (0.5, 0.25, 0.25), seed=seed)
    plan_lab = make_split(graph, IMPUTATION_TASK, (0.6, 0.2, 0.2), seed=seed)
    return plan_med, plan_lab


class TestLossMedication:
    def test_worked_example(self):
        p = Tensor([[0.5, 0.5]])
        loss = loss_medication(p, np.array([[1.0, 0.0]]), weight=1.0)
        assert loss.item() == pytest.approx(2.0 * np.log(2.0), abs=1e-12)

    def test_perfect_fit_limit(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0]])
        eps = 1e-9
        p = Tensor(a * (1 - eps) + (1 - a) * eps)
        assert loss_medication(p, a, weight=3.0).item() < 1e-6

    def test_weight_scales_positive_term_only(self):
        a = np.array([[1.0, 0.0]])
        p = Tensor([[0.5, 0.5]])
        l1 = loss_medication(p, a, weight=1.0).item()
        l5 = loss_medication(p, a, weight=5.0).item()
        # Positive and negative terms are both ln 2 at p=0.5; only the
        # positive one picks up the factor.
        assert l5 - l1 == pytest.approx(4.0 * np.log(2.0), abs=1e-12)

    def test_saturated_probability_guarded(self):
        with pytest.raises(NumericGuardError):
            loss_medication(Tensor([[1.0, 0.5]]), np.array([[1.0, 0.0]]), weight=1.0)
        with pytest.raises(NumericGuardError):
            loss_medication(Tensor([[0.0, 0.5]]), np.array([[1.0, 0.0]]), weight=1.0)

    def test_row_mask_invariance(self):
        rng = np.random.default_rng(0)
        a = (rng.random((5, 4)) < 0.4).astype(float)
        p1 = rng.uniform(0.05, 0.95, (5, 4))
        p2 = p1.copy()
        p2[3:] = rng.uniform(0.05, 0.95, (2, 4))  # rows outside the mask
        mask = np.array([0, 1, 2])
        l1 = loss_medication(Tensor(p1), a, 2.0, mask).item()
        l2 = loss_medication(Tensor(p2), a, 2.0, mask).item()
        assert l1 == l2

    def test_normalized_by_included_rows(self):
        a = np.array([[1.0, 0.0], [1.0, 0.0]])
        p = Tensor([[0.5, 0.5], [0.5, 0.5]])
        full = loss_medication(p, a, 1.0).item()
        one = loss_medication(p, a, 1.0, np.array([0])).item()
        assert full == pytest.approx(one, abs=1e-12)

    def test_empty_row_mask_rejected(self):
        with pytest.raises(ParameterError):
            loss_medication(Tensor([[0.5]]), np.array([[1.0]]), 1.0, np.array([], dtype=int))

    def test_gradient_direction(self):
        # Pushing probability toward a positive target lowers the loss.
        p_vals = np.array([[0.3, 0.5]])
        a = np.array([[1.0, 0.0]])
        p = Tensor(p_vals, requires_grad=True)
        with Tape() as tape:
            loss = loss_medication(p, a, weight=2.0)
        tape.backward(loss)
        assert p.grad[0, 0] < 0.0  # increase p -> lower loss on the positive
        assert p.grad[0, 1] > 0.0


class TestLossLab:
    def test_perfect_fit(self):
        v = np.random.default_rng(0).random((3, 4))
        assert loss_lab(Tensor(v), v, np.ones((3, 4))).item() == 0.0

    def test_single_entry_case(self):
        loss = loss_lab(Tensor([[0.19]]), np.array([[0.2]]), np.array([[1.0]]))
        assert loss.item() == pytest.approx(1e-4, rel=1e-9)

    def test_zero_mask_screens_everything(self):
        v = Tensor(np.full((2, 3), 5.0))
        assert loss_lab(v, np.zeros((2, 3)), np.zeros((2, 3))).item() == 0.0

    def test_divides_by_rows_not_edges(self):
        # Two rows, one masked entry: the per-row normalization halves the
        # single squared error.
        v = Tensor([[0.4], [0.0]])
        a = np.array([[0.2], [0.0]])
        m = np.array([[1.0], [0.0]])
        assert loss_lab(v, a, m).item() == pytest.approx(0.04 / 2.0, abs=1e-15)

    def test_invariant_to_unmasked_values(self):
        a = np.zeros((2, 2))
        m = np.array([[1.0, 0.0], [0.0, 0.0]])
        l1 = loss_lab(Tensor([[0.5, 0.1], [0.2, 0.3]]), a, m).item()
        l2 = loss_lab(Tensor([[0.5, 0.9], [0.8, 0.7]]), a, m).item()
        assert l1 == l2


class TestLossCombined:
    def test_lambda_zero_collapses(self):
        l_med = Tensor([[1.25]])
        l_lab = Tensor([[0.5]])
        assert loss_combined(l_med, l_lab, 0.0) is l_med

    def test_linear_combination(self):
        out = loss_combined(Tensor([[1.0]]), Tensor([[0.5]]), 1.0)
        assert out.item() == 1.5
        out = loss_combined(Tensor([[1.0]]), Tensor([[0.5]]), 2.0)
        assert out.item() == 2.0


class TestClassWeight:
    def test_benchmark_scale_counts(self):
        cw = ClassWeight(n_neg=69345, n_pos=2475)
        assert cw.weight == pytest.approx(28.018, abs=1e-3)
        assert cw.weight * cw.n_pos == cw.n_neg

    def test_from_matrix(self):
        m = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
        cw = ClassWeight.from_matrix(m)
        assert (cw.n_pos, cw.n_neg) == (3, 3)
        assert cw.weight == 1.0

    def test_no_positives_rejected(self):
        with pytest.raises(ParameterError):
            _ = ClassWeight.from_matrix(np.zeros((2, 2))).weight


class TestTrainConfig:
    def test_defaults_valid(self):
        TrainConfig().validate()

    def test_bad_values(self):
        with pytest.raises(ParameterError):
            TrainConfig(lam=-0.1).validate()
        with pytest.raises(ParameterError):
            TrainConfig(patience=100, max_epochs=50).validate()
        with pytest.raises(ParameterError):
            TrainConfig(task_mode="everything").validate()
        with pytest.raises(ParameterError):
            TrainConfig(val_metric="auc").validate()

    def test_metric_resolution(self):
        assert TrainConfig().resolved_metric() == "lrap"
        assert TrainConfig(task_mode="lab").resolved_metric() == "mse"
        assert TrainConfig(task_mode="lab", val_metric="lrap").resolved_metric() == "lrap"


class TestPrepareTrainingData:
    def test_masks_both_tasks(self):
        g = make_toy_graph()
        plan_med, plan_lab = toy_plans(g)
        data = prepare_training_data(g, plan_med, plan_lab)
        for row in plan_med.val:
            assert data.view.a_em[row].sum() == 0
        heldout = np.vstack([plan_lab.val, plan_lab.test])
        for i, j in heldout:
            assert data.view.m_el[i, j] == 0
        # Original graph untouched.
        assert g.m_el.sum() == 7

    def test_plan_kinds_enforced(self):
        g = make_toy_graph()
        plan_med, plan_lab = toy_plans(g)
        with pytest.raises(ParameterError):
            prepare_training_data(g, plan_lab, plan_med)

    def test_lab_targets_give_the_view_loss(self):
        g = make_toy_graph()
        data = prepare_training_data(g, *toy_plans(g))
        np.testing.assert_array_equal(data.lab_targets, data.full.a_el)
        v = Tensor(np.full(data.lab_targets.shape, 0.3))
        via_targets = loss_lab(v, data.lab_targets, data.view.m_el).item()
        assert via_targets == loss_lab(v, data.view.a_el, data.view.m_el).item()

    def test_val_edge_mask_matches_plan(self):
        g = make_toy_graph()
        plan_med, plan_lab = toy_plans(g)
        data = prepare_training_data(g, plan_med, plan_lab)
        assert int(data.val_edge_mask.sum()) == len(plan_lab.val)


def quick_config(**kw):
    base = dict(lam=1.0, lr=0.01, max_epochs=25, patience=25, seed=1)
    base.update(kw)
    return TrainConfig(**base)


class TestTrainLoop:
    def test_runs_and_reports(self):
        g = make_toy_graph()
        model, report = train(g, *toy_plans(g), quick_config(), FAST)
        assert len(report.epochs) >= 1
        assert report.stop_reason in ("patience", "max_epochs")
        assert report.best_epoch >= 1
        assert np.isfinite(report.epochs[0].loss_med)
        assert np.isfinite(report.epochs[0].loss_lab)

    def test_deterministic_under_seed(self):
        g1, g2 = make_toy_graph(), make_toy_graph()
        m1, r1 = train(g1, *toy_plans(g1), quick_config(), FAST)
        m2, r2 = train(g2, *toy_plans(g2), quick_config(), FAST)
        assert model_to_bytes(m1) == model_to_bytes(m2)
        assert r1.epochs == r2.epochs
        assert (r1.best_epoch, r1.best_val) == (r2.best_epoch, r2.best_val)

    def test_returned_model_is_best_epoch_checkpoint(self):
        g = make_toy_graph()
        plan_med, plan_lab = toy_plans(g)
        config = quick_config()
        model, report = train(g, plan_med, plan_lab, config, FAST)
        data = prepare_training_data(g, plan_med, plan_lab)
        p, v, _ = forward(model, data.view)
        from medgcn.metrics import lrap

        val = lrap(p.values[plan_med.val], g.a_em[plan_med.val])
        assert val == pytest.approx(report.best_val, abs=1e-12)

    def test_patience_stop_index(self):
        g = make_toy_graph()
        config = quick_config(max_epochs=200, patience=4, lr=1e-5)
        _, report = train(g, *toy_plans(g), config, FAST)
        if report.stop_reason == "patience":
            assert report.epochs[-1].epoch == report.best_epoch + 4

    def test_medication_only_freezes_lab_head(self):
        g = make_toy_graph()
        config = quick_config(task_mode="medication")
        model, _ = train(g, *toy_plans(g), config, FAST)
        fresh = init_model(g, FAST, config.seed)
        np.testing.assert_array_equal(model.head_lab_w.values, fresh.head_lab_w.values)
        np.testing.assert_array_equal(model.head_lab_b.values, fresh.head_lab_b.values)
        assert not np.array_equal(model.head_med_w.values, fresh.head_med_w.values)

    def test_lab_only_freezes_med_head(self):
        g = make_toy_graph()
        config = quick_config(task_mode="lab")
        model, report = train(g, *toy_plans(g), config, FAST)
        fresh = init_model(g, FAST, config.seed)
        np.testing.assert_array_equal(model.head_med_w.values, fresh.head_med_w.values)
        assert report.val_metric_name == "mse"

    def test_lambda_zero_equals_medication_mode(self):
        g1, g2 = make_toy_graph(), make_toy_graph()
        _, r_zero = train(g1, *toy_plans(g1), quick_config(lam=0.0, task_mode="both"), FAST)
        _, r_med = train(g2, *toy_plans(g2), quick_config(task_mode="medication"), FAST)
        med_losses_zero = [e.loss_med for e in r_zero.epochs]
        med_losses_med = [e.loss_med for e in r_med.epochs]
        assert med_losses_zero == med_losses_med

    def test_divergence_raises(self):
        g = make_toy_graph()
        with pytest.raises((TrainingError, NumericGuardError)):
            train(g, *toy_plans(g), quick_config(lr=1e9, max_epochs=50), FAST)

    def test_dropout_lives_in_hyper_only(self):
        assert "dropout" not in {f.name for f in dataclasses.fields(TrainConfig)}
        g = make_toy_graph()
        model, _ = train(g, *toy_plans(g), quick_config(max_epochs=2, patience=2))
        assert model.hyper == Hyper()

    def test_lab_matrix_normalized_a_fixed_number_of_times(self, monkeypatch):
        # Renormalizing in every epoch would cost a full N_E x N_L pass each.
        import medgcn.graph as graph_mod

        normalize, calls = graph_mod._normalize_matrix, []

        def counted(*args):
            calls.append(1)
            return normalize(*args)

        monkeypatch.setattr(graph_mod, "_normalize_matrix", counted)
        counts = []
        for epochs in (2, 6):
            g = make_toy_graph()
            calls.clear()
            train(g, *toy_plans(g), quick_config(max_epochs=epochs, patience=epochs), FAST)
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_tsv_log_shape(self):
        g = make_toy_graph()
        _, report = train(g, *toy_plans(g), quick_config(max_epochs=5, patience=5), FAST)
        tsv = report.to_tsv()
        lines = tsv.strip().split("\n")
        assert lines[0] == "epoch\tloss_med\tloss_lab\tval_metric"
        assert len(lines) == len(report.epochs) + 1
        first = lines[1].split("\t")
        assert int(first[0]) == 1
        assert float(first[1]) == report.epochs[0].loss_med


class TestActiveParameters:
    def test_both_mode_includes_everything(self):
        g = make_toy_graph()
        model = init_model(g, FAST, 0)
        assert len(active_parameters(model, "both")) == len(model.parameters())

    def test_single_task_drops_other_head(self):
        g = make_toy_graph()
        model = init_model(g, FAST, 0)
        med = active_parameters(model, "medication")
        assert model.head_lab_w not in med and model.head_med_w in med
        lab = active_parameters(model, "lab")
        assert model.head_med_w not in lab and model.head_lab_w in lab

    def test_lambda_zero_both_matches_medication(self):
        g = make_toy_graph()
        model = init_model(g, FAST, 0)
        assert active_parameters(model, "both", lam=0.0) == active_parameters(model, "medication")
