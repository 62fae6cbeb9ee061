"""Loss definitions, cross-regularization wiring, and the training loop."""

import dataclasses

import numpy as np
import pytest

from medgcn import autodiff as ad
from medgcn.autodiff import Tape, Tensor
from medgcn.errors import NumericGuardError, ParameterError, ShapeError, TrainingError
from medgcn.graph import IMPUTATION_TASK, MEDICATION_TASK, make_split
from medgcn.metrics import lrap, masked_mse
from medgcn.model import Hyper, forward, init_model, make_view, model_to_bytes
from medgcn.synthetic import SyntheticSpec, generate_synthetic
from medgcn.training import (
    TRAIN_DTYPE,
    ClassWeight,
    TrainConfig,
    active_parameters,
    loss_combined,
    loss_lab,
    loss_medication,
    medication_logit_loss,
    prepare_training_data,
    to_train_dtype,
    train,
    training_view,
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


def _composed_loss_lab(v, targets, mask):
    """loss_lab as the chain of tape nodes it fuses."""
    diff = ad.sub(v, Tensor(targets))
    masked = ad.mul(Tensor(mask), ad.mul(diff, diff))
    return ad.scale(ad.tensor_sum(masked), 1.0 / v.rows)


class TestFusedLossLab:
    @pytest.mark.parametrize("upstream", [1.0, -0.37])
    def test_value_and_gradient_equal_the_composition_bit_for_bit(self, upstream):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((6, 5)), requires_grad=True)
        targets = rng.random((6, 5))
        mask = (rng.random((6, 5)) < 0.5).astype(float)
        results = []
        for loss_fn in (loss_lab, _composed_loss_lab):
            x.zero_grad()
            with Tape() as tape:
                # v is an interior node, as the lab head's output is.
                loss = ad.scale(loss_fn(ad.sigmoid(x), targets, mask), upstream)
            tape.backward(loss)
            results.append((loss.values.tobytes(), x.grad.tobytes()))
        assert results[0] == results[1]

    def test_is_one_tape_node(self):
        v = Tensor(np.full((2, 2), 0.5), requires_grad=True)
        with Tape() as tape:
            loss_lab(v, np.zeros((2, 2)), np.ones((2, 2)))
        assert len(tape) == 1


class TestMedicationLogitLoss:
    @staticmethod
    def case(seed):
        # Logits within a few units of 0, where the probability-space loss
        # is still accurate to rounding.
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((9, 6)) * 2.0
        targets = (rng.random((9, 6)) < 0.3).astype(float)
        rows = np.array([0, 2, 3, 5, 8])
        return z, targets, rows, float(rng.uniform(1.0, 30.0))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_the_probability_space_loss(self, seed):
        z_vals, targets, rows, weight = self.case(seed)
        grads = []
        for via_logits in (True, False):
            z = Tensor(z_vals, requires_grad=True)
            with Tape() as tape:
                if via_logits:
                    loss = medication_logit_loss(targets, weight, rows)(z)
                else:
                    loss = loss_medication(ad.sigmoid(z), targets, weight, rows)
            tape.backward(loss)
            grads.append((loss.item(), z.grad))
        (got, got_grad), (want, want_grad) = grads
        assert got == pytest.approx(want, rel=1e-12)
        np.testing.assert_allclose(got_grad, want_grad, rtol=1e-9, atol=1e-15)
        outside = np.setdiff1d(np.arange(z_vals.shape[0]), rows)
        assert not got_grad[outside].any()

    def test_stays_finite_where_probabilities_saturate(self):
        z_vals = np.array([[800.0, -800.0, 800.0, -800.0]])
        targets = np.array([[1.0, 0.0, 0.0, 1.0]])
        with pytest.raises(NumericGuardError):
            loss_medication(ad.sigmoid(Tensor(z_vals)), targets, 3.0)
        z = Tensor(z_vals, requires_grad=True)
        with Tape() as tape:
            loss = medication_logit_loss(targets, 3.0, np.array([0]))(z)
        tape.backward(loss)
        # Right answers cost nothing; a wrong one costs |z|, a missed
        # positive three times over.
        assert loss.item() == 800.0 + 3.0 * 800.0
        np.testing.assert_array_equal(z.grad, [[0.0, 0.0, 1.0, -3.0]])

    def test_weight_scales_the_positive_term_only(self):
        z = Tensor(np.zeros((1, 2)))
        targets = np.array([[1.0, 0.0]])
        l1 = medication_logit_loss(targets, 1.0, np.array([0]))(z).item()
        l5 = medication_logit_loss(targets, 5.0, np.array([0]))(z).item()
        assert l5 - l1 == pytest.approx(4.0 * np.log(2.0), abs=1e-12)

    def test_empty_rows_rejected(self):
        with pytest.raises(ParameterError):
            medication_logit_loss(np.ones((2, 2)), 1.0, np.array([], dtype=int))

    def test_width_mismatch_rejected(self):
        loss = medication_logit_loss(np.ones((2, 2)), 1.0, np.array([0]))
        with pytest.raises(ShapeError):
            loss(Tensor(np.zeros((2, 3))))


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


def _as_float64_bits(t):
    return t.values.astype(np.float64).tobytes()


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

    # The idle head keeps its initialization as cast for training, bit for
    # bit; the returned model holds it in float64.
    def test_medication_only_freezes_lab_head(self):
        g = make_toy_graph()
        config = quick_config(task_mode="medication")
        model, _ = train(g, *toy_plans(g), config, FAST)
        fresh = to_train_dtype(init_model(g, FAST, config.seed))
        assert _as_float64_bits(model.head_lab_w) == _as_float64_bits(fresh.head_lab_w)
        assert _as_float64_bits(model.head_lab_b) == _as_float64_bits(fresh.head_lab_b)
        assert not np.array_equal(model.head_med_w.values, fresh.head_med_w.values)

    def test_lab_only_freezes_med_head(self):
        g = make_toy_graph()
        config = quick_config(task_mode="lab")
        model, report = train(g, *toy_plans(g), config, FAST)
        fresh = to_train_dtype(init_model(g, FAST, config.seed))
        assert _as_float64_bits(model.head_med_w) == _as_float64_bits(fresh.head_med_w)
        assert report.val_metric_name == "mse"

    def test_trains_in_float32_and_returns_float64_weights(self):
        # Checkpoints and inference compute in float64 on the float32
        # values the epochs trained.
        g = make_toy_graph()
        model, _ = train(g, *toy_plans(g), quick_config(max_epochs=3, patience=3), FAST)
        for t in model.parameters():
            assert t.values.dtype == np.float64
            assert _as_float64_bits(t) == t.values.astype(TRAIN_DTYPE).astype(np.float64).tobytes()

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

    def test_runaway_learning_rate_stops_as_divergence(self):
        # The logit-space loss stays finite however far the weights run, so
        # divergence is read from the loss growing past its first value.
        g = make_toy_graph()
        with pytest.raises(TrainingError, match="training diverged: loss .* times the first epoch's"):
            train(g, *toy_plans(g), quick_config(lr=1e9, max_epochs=50), FAST)

    def test_checkpoint_image_written_once_per_run(self, monkeypatch):
        # The best epoch is kept by copying weights; the image is built
        # once, after the loop.
        import medgcn.training as training_mod

        calls = []

        def counted(model):
            calls.append(1)
            return model_to_bytes(model)

        monkeypatch.setattr(training_mod, "model_to_bytes", counted)
        g = make_toy_graph()
        model, report = train(g, *toy_plans(g), quick_config(max_epochs=8, patience=8), FAST)
        assert len(calls) == 1
        assert report.best_epoch >= 1

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


@pytest.mark.parametrize("task_mode", ["both", "medication"])
def test_high_learning_rate_trains_without_a_numeric_guard(task_mode):
    # At lr 0.05 some training probabilities round to exactly 0 or 1 within
    # 40 epochs; a log loss over probabilities aborted there, while the
    # logit-space loss trains on.
    graph = generate_synthetic(SyntheticSpec(n_encounters=300)).graph
    ratios = (0.72, 0.08, 0.2)
    plans = make_split(graph, MEDICATION_TASK, ratios, 0), make_split(graph, IMPUTATION_TASK, ratios, 0)
    config = TrainConfig(lr=0.05, max_epochs=60, patience=60, seed=0, task_mode=task_mode)
    _, report = train(graph, *plans, config, Hyper(hidden_dim=64))
    assert len(report.epochs) == 60
    assert all(np.isfinite(e.loss_med) for e in report.epochs)
    assert report.best_val > report.untrained_val


def test_lab_only_at_a_high_learning_rate_runs_every_epoch():
    # The idle medication loss is read in logit space from the training
    # forward, so no probability guard on a loss that does not train can
    # abort the run.  At lr 0.5 the model gets worse; only the run's
    # completion is asserted.
    graph = generate_synthetic(SyntheticSpec(n_encounters=300)).graph
    ratios = (0.72, 0.08, 0.2)
    plans = make_split(graph, MEDICATION_TASK, ratios, 0), make_split(graph, IMPUTATION_TASK, ratios, 0)
    config = TrainConfig(lr=0.5, max_epochs=80, patience=80, seed=0, task_mode="lab")
    _, report = train(graph, *plans, config, Hyper(hidden_dim=64))
    assert len(report.epochs) == 80
    assert all(np.isfinite([e.loss_med, e.loss_lab]).all() for e in report.epochs)


def _small_graph():
    return generate_synthetic(
        SyntheticSpec(n_patients=25, n_encounters=60, n_labs=10, n_meds=8, latent_dim=4, lab_observe_prob=0.35)
    ).graph


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("task_mode", ["both", "medication", "lab"])
def test_post_step_log_matches_a_full_forward(task_mode, normalize):
    # With one epoch the returned model is the post-step model, so the
    # validation metric, read from a forward over the validation rows only,
    # must match a full forward of it through the same training view and
    # dtype.  Both logged losses come from the epoch's training forward,
    # reproduced here from the same seed.
    graph = _small_graph()
    plan_med, plan_lab = toy_plans(graph)
    hyper = Hyper(hidden_dim=8, dropout=0.1, normalize_adjacency=normalize)
    config = quick_config(task_mode=task_mode, max_epochs=1, patience=1)
    model, report = train(graph, plan_med, plan_lab, config, hyper)
    assert report.best_epoch == 1
    data = prepare_training_data(graph, plan_med, plan_lab)
    view = training_view(make_view(data.view, normalize))
    p, v, _ = forward(to_train_dtype(model), view)
    (record,) = report.epochs
    if task_mode == "lab":
        val = masked_mse(v.values, data.lab_targets, data.val_edge_mask)
    else:
        val = lrap(p.values[plan_med.val], data.full.a_em[plan_med.val])
    assert record.val_metric == pytest.approx(val, abs=1e-12)

    rng = np.random.default_rng(config.seed)
    z, v1, _ = forward(to_train_dtype(init_model(graph, hyper, config.seed)), view, training=True, rng=rng)
    med_loss = medication_logit_loss(data.view.a_em.astype(TRAIN_DTYPE), data.class_weight.weight, plan_med.train)
    assert record.loss_med == med_loss(z).item()
    assert record.loss_lab == loss_lab(v1, data.lab_targets.astype(TRAIN_DTYPE), data.view.m_el).item()


def test_epoch_one_losses_agree_across_modes():
    # The modes share the initialization and the dropout draws, and each
    # logs both losses from its training forward, so the first epoch's
    # losses do not depend on which of them trains.
    graph = _small_graph()
    plans = toy_plans(graph)
    hyper = Hyper(hidden_dim=8, dropout=0.1)
    logged = {}
    for task_mode in ("both", "medication", "lab"):
        _, report = train(graph, *plans, quick_config(task_mode=task_mode, max_epochs=1, patience=1), hyper)
        logged[task_mode] = (report.epochs[0].loss_med, report.epochs[0].loss_lab)
    assert logged["medication"] == logged["both"] == logged["lab"]


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
