"""Acceptance gate: ten required behaviors, one test and one printed
verdict line each (run with -s to see the lines for passing tests).

Criteria 6 and 7 train at full benchmark scale; this module takes a few
minutes of CPU time, dominated by the 15 paired runs of criterion 7.
"""

import json
import time

import numpy as np
import pytest

from medgcn import autodiff as ad
from medgcn.autodiff import Tensor
from medgcn.cli import main as cli_main
from medgcn.graph import (
    IMPUTATION_TASK,
    MEDICATION_TASK,
    NodeRegistry,
    NodeType,
    assemble_graph,
    graph_stats,
    make_split,
)
from medgcn.metrics import lrap, map_at_k
from medgcn.model import (
    Hyper,
    TypedGraphView,
    forward,
    hetero_layer_forward,
    identity_features,
    inductive_embed,
    init_model,
    make_view,
)
from medgcn.synthetic import SyntheticSpec, generate_synthetic
from medgcn.training import (
    TASK_BOTH,
    TASK_LAB,
    TASK_MEDICATION,
    ClassWeight,
    TrainConfig,
    evaluate_split,
    loss_combined,
    loss_lab,
    loss_medication,
    train,
)

from conftest import make_toy_graph
from oracles import layer_oracle, lrap_oracle, map_at_k_oracle
from test_autodiff import check_grads

RATIOS = (0.72, 0.08, 0.20)


def verdict(n: int, detail: str) -> None:
    print(f"PASS criterion {n:02d}: {detail}")


@pytest.fixture(scope="module")
def default_cohort():
    return generate_synthetic(SyntheticSpec())


@pytest.fixture(scope="module")
def small_cohort():
    return generate_synthetic(
        SyntheticSpec(
            n_patients=30, n_encounters=60, n_labs=12, n_meds=9,
            latent_dim=4, lab_observe_prob=0.35, med_rate=2.0,
            noise_sd=0.02, seed=7,
        )
    )


def _random_loss_case(seed: int):
    """One randomized composed graph: affine stack into a sigmoid head and
    one of the two training losses.  Dims <= 8, depth <= 4."""
    rng = np.random.default_rng(seed)
    n, m, d = (int(x) for x in rng.integers(2, 9, size=3))
    x = Tensor(rng.standard_normal((n, d)) * 0.5, requires_grad=True)
    w1 = Tensor(rng.standard_normal((d, m)) * 0.5, requires_grad=True)
    leaves = [x, w1]
    use_bias_row = seed % 2 == 0
    if use_bias_row:
        b = Tensor(rng.standard_normal((1, m)) * 0.1, requires_grad=True)
    else:
        b = Tensor(rng.standard_normal((n, m)) * 0.1, requires_grad=True)
    leaves.append(b)
    deepen = seed % 3 == 0
    if deepen:
        w2 = Tensor(rng.standard_normal((m, m)) * 0.5, requires_grad=True)
        leaves.append(w2)
    med_loss = seed % 2 == 0
    targets_bin = (rng.random((n, m)) < 0.4).astype(float)
    weight = float(rng.uniform(1.0, 5.0))
    targets_val = rng.random((n, m))
    mask = (rng.random((n, m)) < 0.6).astype(float)
    covered = {"matmul", "sigmoid"}
    covered.add("add_bias" if use_bias_row else "add")
    if deepen:
        covered.add("relu")
    covered.add("loss_med" if med_loss else "loss_lab")

    def build():
        z = ad.matmul(x, w1)
        z = ad.add_bias(z, b) if use_bias_row else ad.add(z, b)
        if deepen:
            z = ad.matmul(ad.relu(z), w2)
        p = ad.sigmoid(z)
        if med_loss:
            return loss_medication(p, targets_bin, weight)
        return loss_lab(p, targets_val, mask)

    return build, leaves, covered


def test_criterion_01_gradient_oracle():
    start = time.time()
    covered = set()
    for seed in range(100):
        build, leaves, case_cover = _random_loss_case(seed)
        check_grads(build, leaves)
        covered |= case_cover
    elapsed = time.time() - start
    assert {"matmul", "add", "add_bias", "relu", "sigmoid", "loss_med", "loss_lab"} <= covered
    assert elapsed < 30.0
    verdict(1, f"100 seeded loss graphs match central differences at rtol 1e-4 in {elapsed:.1f}s")


def test_criterion_02_layer_equation_oracle():
    graph = make_toy_graph()
    worst = 0.0
    for seed in range(20):
        model = init_model(graph, Hyper(hidden_dim=6, dropout=0.0), seed=seed)
        got = hetero_layer_forward(
            model.layers[0], graph, identity_features(make_view(graph)), activation="relu"
        )
        w = {t: model.layers[0][t].values for t in model.layers[0]}
        want = layer_oracle(
            np.eye(graph.n_patients)[graph.a_ep], graph.a_el, graph.a_em,
            w["encounter"], w["patient"], w["lab"], w["medication"],
        )
        for t in want:
            np.testing.assert_allclose(got[t].values, want[t], atol=1e-12)
            worst = max(worst, float(np.max(np.abs(got[t].values - want[t]))))
    verdict(2, f"20 weight seeds match the straight-line layer rule, worst |diff| {worst:.2e}")


def test_criterion_03_homogeneous_reduction():
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(3, 9)), int(rng.integers(2, 6))
        a = (rng.random((n, n)) < 0.4).astype(float)
        h = rng.standard_normal((n, n))
        w = rng.standard_normal((n, d))
        view = TypedGraphView(("node",), {"node": n}, {("node", "node"): a})
        out = hetero_layer_forward(
            {"node": Tensor(w, requires_grad=True)}, view, {"node": h}, activation="relu"
        )
        want = np.maximum((a + np.eye(n)) @ h @ w, 0.0)
        np.testing.assert_allclose(out["node"].values, want, atol=1e-12)
        worst = max(worst, float(np.max(np.abs(out["node"].values - want))))
    verdict(3, f"single-type layer equals phi((A+I)HW), worst |diff| {worst:.2e} over 10 seeds")


def test_criterion_04_inductive_consistency(small_cohort):
    graph = small_cohort.graph
    model = init_model(graph, Hyper(hidden_dim=16, dropout=0.0), seed=0)
    p, v, _ = forward(model, graph, training=False)
    worst = 0.0
    for i in range(graph.n_encounters):
        p_row, v_row = inductive_embed(model, graph, i)
        np.testing.assert_allclose(p_row, p.values[i], atol=1e-6)
        np.testing.assert_allclose(v_row, v.values[i], atol=1e-6)
        worst = max(
            worst,
            float(np.max(np.abs(p_row - p.values[i]))),
            float(np.max(np.abs(v_row - v.values[i]))),
        )
    verdict(4, f"inductive rows match the batch forward for all {graph.n_encounters} encounters, worst |diff| {worst:.2e}")


def test_criterion_05_metric_oracles():
    assert lrap([[0.9, 0.8, 0.7]], [[1, 0, 1]]) == pytest.approx(5.0 / 6.0, abs=1e-15)
    assert map_at_k([[0.9, 0.8, 0.7]], [[1, 0, 1]], k=2) == 0.5
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        scores = np.round(rng.random((6, 5)), 2)  # rounding forces rank ties
        rel = (rng.random((6, 5)) < 0.4).astype(int)
        if not (rel.sum(axis=1) > 0).any():
            rel[0, 0] = 1
        assert lrap(scores, rel) == lrap_oracle(scores, rel)
        assert map_at_k(scores, rel, 2) == map_at_k_oracle(scores, rel, 2)
        assert map_at_k(scores, rel, 2, "k") == map_at_k_oracle(scores, rel, 2, "k")
    verdict(5, "1000 random 6x5 instances agree bit-exactly; worked examples 5/6 and 0.5 reproduce")


def test_criterion_06_synthetic_benchmark(default_cohort):
    start = time.time()
    graph = default_cohort.graph
    plan_med = make_split(graph, MEDICATION_TASK, RATIOS, 0)
    plan_lab = make_split(graph, IMPUTATION_TASK, RATIOS, 0)
    config = TrainConfig(
        lam=1.0, lr=0.001, max_epochs=300, patience=50, seed=0,
        task_mode=TASK_BOTH,
    )
    model, _ = train(graph, plan_med, plan_lab, config, Hyper(hidden_dim=300, dropout=0.1))
    vals = {e.name: e.value for e in evaluate_split(model, graph, plan_med, plan_lab, k=2)}
    elapsed = time.time() - start
    mse_bar = 0.8 * vals["baseline_column_mean_mse"]
    lrap_bar = vals["baseline_popularity_lrap"] + 0.05
    assert vals["masked_mse"] <= mse_bar, (
        f"imputation MSE {vals['masked_mse']:.4f} above 0.8 x column-mean {mse_bar:.4f}"
    )
    assert vals["lrap"] >= lrap_bar, (
        f"LRAP {vals['lrap']:.4f} below popularity + 0.05 = {lrap_bar:.4f}"
    )
    assert elapsed < 120.0
    verdict(
        6,
        f"MSE {vals['masked_mse']:.4f} <= {mse_bar:.4f} and LRAP {vals['lrap']:.4f} >= "
        f"{lrap_bar:.4f} in {elapsed:.0f}s",
    )


def test_criterion_07_cross_regularization_trend(default_cohort):
    graph = default_cohort.graph

    def run(task, seed):
        plan_med = make_split(graph, MEDICATION_TASK, RATIOS, seed)
        plan_lab = make_split(graph, IMPUTATION_TASK, RATIOS, seed)
        metric = "mse" if task == TASK_LAB else "lrap"
        config = TrainConfig(
            lam=1.0, lr=0.001, max_epochs=150, patience=150,
            seed=seed, task_mode=task, val_metric=metric,
        )
        model, _ = train(graph, plan_med, plan_lab, config, Hyper(hidden_dim=300, dropout=0.1))
        vals = {e.name: e.value for e in evaluate_split(model, graph, plan_med, plan_lab, k=2)}
        return vals["lrap"], vals["masked_mse"]

    lrap_joint, lrap_single, mse_joint, mse_single = [], [], [], []
    for seed in range(5):
        lb, mb = run(TASK_BOTH, seed)
        lm, _ = run(TASK_MEDICATION, seed)
        _, ml = run(TASK_LAB, seed)
        lrap_joint.append(lb)
        lrap_single.append(lm)
        mse_joint.append(mb)
        mse_single.append(ml)
    med_wins = sum(b >= s for b, s in zip(lrap_joint, lrap_single))
    lab_wins = sum(b <= s for b, s in zip(mse_joint, mse_single))
    med_line = (
        f"medication task {med_wins}/5 joint wins "
        f"(mean LRAP {np.mean(lrap_joint):.4f} vs {np.mean(lrap_single):.4f})"
    )
    lab_line = (
        f"lab task {lab_wins}/5 joint wins "
        f"(mean MSE {np.mean(mse_joint):.4f} vs {np.mean(mse_single):.4f})"
    )
    assert med_wins >= 4 or lab_wins >= 4, f"no task trend: {med_line}; {lab_line}"
    verdict(7, f"{med_line}; {lab_line}")


def test_criterion_08_reference_sparsities():
    # Reference cohort shape: 1260 encounters, 865 patients, 197 labs,
    # 57 medications with 1260 / 43806 / 2475 edges.
    reg = NodeRegistry()
    for i in range(865):
        reg.add(NodeType.PATIENT, f"P{i}")
    for i in range(1260):
        reg.add(NodeType.ENCOUNTER, f"E{i}")
    for j in range(197):
        reg.add(NodeType.LAB, f"L{j}")
    for j in range(57):
        reg.add(NodeType.MEDICATION, f"M{j}")
    a_ep = np.arange(1260) % 865
    m_el = np.zeros(1260 * 197)
    m_el[:43806] = 1.0
    m_el = m_el.reshape(1260, 197)
    a_em = np.zeros(1260 * 57)
    a_em[:2475] = 1.0
    a_em = a_em.reshape(1260, 57)
    graph = assemble_graph(reg, a_ep, raw_el=0.5 * m_el, m_el=m_el, a_em=a_em)
    stats = graph_stats(graph)
    got = {name: round(100.0 * stats.matrix(name).sparsity, 2) for name in ("a_ep", "a_el", "a_em")}
    assert got["a_ep"] == 99.88
    assert got["a_el"] == 82.35
    assert got["a_em"] == 96.55
    verdict(8, f"sparsities {got['a_ep']}/{got['a_el']}/{got['a_em']} match the reference table")


def test_criterion_09_pipeline_determinism(tmp_path):
    spec = tmp_path / "spec.txt"
    spec.write_text(
        "n_patients = 25\nn_encounters = 50\nn_labs = 10\nn_meds = 8\n"
        "latent_dim = 4\nlab_observe_prob = 0.35\nmed_rate = 2.0\n"
        "noise_sd = 0.02\nseed = 11\n"
    )
    artifacts = {}
    for run in ("one", "two"):
        base = tmp_path / run
        data = base / "data"
        ckpt = base / "model.ckpt"
        report = base / "eval.json"
        assert cli_main(["synth", "--spec", str(spec), "--out", str(data)]) == 0
        assert cli_main(
            [
                "train", "--data", str(data), "--hidden", "12", "--epochs", "8",
                "--patience", "8", "--dropout", "0.1", "--seed", "2", "--out", str(ckpt),
            ]
        ) == 0
        assert cli_main(
            [
                "evaluate", "--checkpoint", str(ckpt), "--data", str(data),
                "--split-seed", "2", "--report", str(report),
            ]
        ) == 0
        artifacts[run] = {
            "bundle": {f.name: f.read_bytes() for f in sorted(data.iterdir())},
            "checkpoint": ckpt.read_bytes(),
            "log": (base / "model.ckpt.log.tsv").read_bytes(),
            "report": report.read_bytes(),
        }
    assert artifacts["one"]["bundle"] == artifacts["two"]["bundle"]
    assert artifacts["one"]["checkpoint"] == artifacts["two"]["checkpoint"]
    assert artifacts["one"]["log"] == artifacts["two"]["log"]
    assert artifacts["one"]["report"] == artifacts["two"]["report"]
    payload = json.loads(artifacts["one"]["report"])
    assert any(e["name"] == "lrap" for e in payload["metrics"])
    verdict(9, "synth -> train -> evaluate twice: bundles, checkpoint, log, and report byte-identical")


def test_criterion_10_loss_identities():
    # medication loss vanishes as predictions approach the labels
    a = np.array([[1.0, 0.0], [0.0, 1.0]])
    eps = 1e-9
    near = Tensor(a * (1 - eps) + (1 - a) * eps)
    assert loss_medication(near, a, weight=3.0).item() < 1e-6
    # lab loss is exactly zero at a perfect fit
    v = np.random.default_rng(0).random((3, 4))
    assert loss_lab(Tensor(v), v, np.ones((3, 4))).item() == 0.0
    # class-weight identity at reference-scale counts, exact in float64
    cw = ClassWeight(n_neg=69345, n_pos=2475)
    assert cw.weight * cw.n_pos == float(cw.n_neg)
    # zero lambda collapses the combined loss to the medication term
    l_med = loss_medication(Tensor([[0.3, 0.6]]), np.array([[0.0, 1.0]]), weight=2.0)
    l_lab = loss_lab(Tensor([[0.4]]), np.array([[0.9]]), np.array([[1.0]]))
    assert loss_combined(l_med, l_lab, 0.0) is l_med
    combined = loss_combined(l_med, l_lab, 0.5)
    assert combined.item() == pytest.approx(l_med.item() + 0.5 * l_lab.item(), rel=1e-12)
    verdict(10, "perfect-fit zeros, weight*N_p == N_n exact, and the lambda=0 collapse all hold")
