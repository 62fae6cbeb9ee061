"""Model construction, layer math, forward passes, inductive embedding,
and checkpointing."""

import hashlib

import numpy as np
import pytest

from medgcn.autodiff import Tensor
from medgcn.errors import CheckpointError, GraphLookupError, ParameterError, ShapeError
from medgcn.graph import add_encounter, build_graph
from medgcn.model import (
    Hyper,
    Membership,
    TypedGraphView,
    forward,
    hetero_layer_forward,
    identity_features,
    inductive_embed,
    init_model,
    load_model,
    make_view,
    model_from_bytes,
    model_to_bytes,
    save_model,
    verify_model_graph,
)

from conftest import make_toy_graph
from oracles import layer_oracle

SMALL = Hyper(hidden_dim=6, dropout=0.0)


def dense(adj):
    """The matrix a view adjacency stands for."""
    if not isinstance(adj, Membership):
        return adj
    m = np.eye(adj.n_groups)[adj.index]
    if not adj.transposed:
        return m
    return m.T if adj.row_scale is None else adj.row_scale[:, None] * m.T


class TestInitModel:
    def test_weight_shapes_on_toy(self, toy_graph):
        model = init_model(toy_graph, SMALL, seed=0)
        shapes = {t: w.shape for t, w in model.layers[0].items()}
        assert shapes == {
            "encounter": (4, 6),
            "patient": (2, 6),
            "lab": (3, 6),
            "medication": (3, 6),
        }
        assert model.head_med_w.shape == (6, 3)
        assert model.head_lab_w.shape == (6, 3)

    def test_same_seed_bit_identical(self, toy_graph):
        a = init_model(toy_graph, SMALL, seed=5)
        b = init_model(toy_graph, SMALL, seed=5)
        for wa, wb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(wa.values, wb.values)

    def test_init_bounds(self, toy_graph):
        model = init_model(toy_graph, SMALL, seed=1)
        for t, w in model.layers[0].items():
            limit = np.sqrt(6.0 / (w.rows + w.cols))
            assert np.abs(w.values).max() <= limit

    def test_biases_zero(self, toy_graph):
        model = init_model(toy_graph, SMALL, seed=1)
        assert np.all(model.head_med_b.values == 0.0)
        assert np.all(model.head_lab_b.values == 0.0)

    def test_bad_hyper_rejected(self, toy_graph):
        with pytest.raises(ParameterError):
            init_model(toy_graph, Hyper(hidden_dim=0), seed=0)
        with pytest.raises(ParameterError):
            init_model(toy_graph, Hyper(dropout=1.0), seed=0)
        with pytest.raises(ParameterError):
            init_model(toy_graph, Hyper(activation="tanh"), seed=0)

    def test_multilayer_shapes(self, toy_graph):
        model = init_model(toy_graph, Hyper(hidden_dim=5, n_layers=2, dropout=0.0), seed=0)
        assert model.layers[1]["encounter"].shape == (5, 5)
        assert model.layers[1]["patient"].shape == (5, 5)


class TestLayerForward:
    def test_two_node_hand_example(self):
        # One encounter linked to one patient, scalar weights of 1 and no
        # activation: the encounter sums its own feature and the patient's.
        g = build_graph(["P1"], [("E1", "P1")], [], [])
        layer = {t: Tensor(np.ones((1, 1)), requires_grad=True) for t in ("encounter", "patient", "lab", "medication")}
        layer["lab"] = Tensor(np.ones((0, 1)), requires_grad=True)
        layer["medication"] = Tensor(np.ones((0, 1)), requires_grad=True)
        out = hetero_layer_forward(layer, g, identity_features(make_view(g)), activation="identity")
        np.testing.assert_allclose(out["encounter"].values, [[2.0]])
        np.testing.assert_allclose(out["patient"].values, [[2.0]])

    def test_pure_self_loop_keeps_features(self):
        # No edges anywhere and identity weights: propagation is a no-op.
        view = TypedGraphView(("encounter",), {"encounter": 3}, {})
        layer = {"encounter": Tensor(np.eye(3), requires_grad=True)}
        out = hetero_layer_forward(layer, view, {"encounter": None}, activation="identity")
        np.testing.assert_array_equal(out["encounter"].values, np.eye(3))

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_straight_line_oracle(self, toy_graph, seed):
        model = init_model(toy_graph, SMALL, seed=seed)
        got = hetero_layer_forward(
            model.layers[0], toy_graph, identity_features(make_view(toy_graph)), activation="relu"
        )
        w = {t: model.layers[0][t].values for t in model.layers[0]}
        want = layer_oracle(
            np.eye(toy_graph.n_patients)[toy_graph.a_ep], toy_graph.a_el, toy_graph.a_em,
            w["encounter"], w["patient"], w["lab"], w["medication"],
        )
        for t in want:
            np.testing.assert_allclose(got[t].values, want[t], atol=1e-12)

    def test_homogeneous_reduction(self):
        # One node type with an explicit adjacency: the layer must compute
        # phi((A + I) H W) exactly.
        rng = np.random.default_rng(3)
        n, d = 7, 4
        a = (rng.random((n, n)) < 0.4).astype(float)
        w = rng.standard_normal((n, d))
        view = TypedGraphView(("node",), {"node": n}, {("node", "node"): a})
        out = hetero_layer_forward(
            {"node": Tensor(w, requires_grad=True)}, view, {"node": None}, activation="relu"
        )
        want = np.maximum((a + np.eye(n)) @ np.eye(n) @ w, 0.0)
        np.testing.assert_allclose(out["node"].values, want, atol=1e-12)

    def test_explicit_features(self, toy_graph):
        rng = np.random.default_rng(0)
        feats = {
            "encounter": rng.standard_normal((4, 2)),
            "patient": rng.standard_normal((2, 2)),
            "lab": rng.standard_normal((3, 2)),
            "medication": rng.standard_normal((3, 2)),
        }
        model = init_model(toy_graph, SMALL, seed=0, feature_dims={t: 2 for t in feats})
        out = hetero_layer_forward(model.layers[0], toy_graph, feats, activation="identity")
        w = {t: model.layers[0][t].values for t in feats}
        z_e = (
            feats["encounter"] @ w["encounter"]
            + np.eye(toy_graph.n_patients)[toy_graph.a_ep] @ feats["patient"] @ w["patient"]
            + toy_graph.a_el @ feats["lab"] @ w["lab"]
            + toy_graph.a_em @ feats["medication"] @ w["medication"]
        )
        np.testing.assert_allclose(out["encounter"].values, z_e, atol=1e-12)

    def test_feature_dim_mismatch(self, toy_graph):
        model = init_model(toy_graph, SMALL, seed=0)
        feats = identity_features(make_view(toy_graph))
        feats["patient"] = np.ones((2, 9))
        with pytest.raises(ShapeError):
            hetero_layer_forward(model.layers[0], toy_graph, feats)

    def test_normalized_adjacency(self, toy_graph):
        view = make_view(toy_graph, normalize_adjacency=True)
        for (dst, src), mat in view.adjacency.items():
            sums = dense(mat).sum(axis=1)
            assert np.all((np.abs(sums - 1.0) < 1e-12) | (sums == 0.0))

    @pytest.mark.parametrize("normalize", [False, True])
    def test_membership_matches_dense_product(self, normalize):
        # Patient P3 has no encounter, so its normalized row stays zero.
        graph = build_graph(
            ["P1", "P2", "P3"], [("E1", "P2"), ("E2", "P1"), ("E3", "P2")], [("E1", "L1", 1.0)], []
        )
        view = make_view(graph, normalize_adjacency=normalize)
        dense_view = TypedGraphView(
            view.types, view.counts, {pair: dense(adj) for pair, adj in view.adjacency.items()}
        )
        model = init_model(graph, SMALL, seed=5)
        feats = identity_features(view)
        got = hetero_layer_forward(model.layers[0], view, feats, activation="identity")
        want = hetero_layer_forward(model.layers[0], dense_view, feats, activation="identity")
        for t in want:
            np.testing.assert_allclose(got[t].values, want[t].values, atol=1e-12)


class TestForward:
    def test_zero_heads_give_half(self, toy_graph):
        model = init_model(toy_graph, SMALL, seed=0)
        model.head_med_w.values[:] = 0.0
        model.head_lab_w.values[:] = 0.0
        p, v, _ = forward(model, toy_graph)
        np.testing.assert_array_equal(p.values, np.full((4, 3), 0.5))
        np.testing.assert_array_equal(v.values, np.full((4, 3), 0.5))

    def test_outputs_in_open_interval(self, toy_graph):
        model = init_model(toy_graph, SMALL, seed=2)
        p, v, h = forward(model, toy_graph)
        assert np.all((p.values > 0.0) & (p.values < 1.0))
        assert np.all((v.values > 0.0) & (v.values < 1.0))
        assert h.shape == (4, 6)

    def test_eval_deterministic(self, toy_graph):
        model = init_model(toy_graph, SMALL, seed=2)
        p1, v1, _ = forward(model, toy_graph)
        p2, v2, _ = forward(model, toy_graph)
        np.testing.assert_array_equal(p1.values, p2.values)
        np.testing.assert_array_equal(v1.values, v2.values)

    def test_training_deterministic_under_seed(self, toy_graph):
        model = init_model(toy_graph, Hyper(hidden_dim=6, dropout=0.4), seed=2)
        p1, _, _ = forward(model, toy_graph, training=True, rng=np.random.default_rng(9))
        p2, _, _ = forward(model, toy_graph, training=True, rng=np.random.default_rng(9))
        p3, _, _ = forward(model, toy_graph, training=True, rng=np.random.default_rng(10))
        np.testing.assert_array_equal(p1.values, p2.values)
        assert not np.array_equal(p1.values, p3.values)

    def test_last_layer_pruning_matches_full(self, toy_graph):
        model = init_model(toy_graph, SMALL, seed=4)
        p_pruned, v_pruned, _ = forward(model, toy_graph)
        p_full, v_full, _ = forward(model, toy_graph, all_types_last_layer=True)
        np.testing.assert_array_equal(p_pruned.values, p_full.values)
        np.testing.assert_array_equal(v_pruned.values, v_full.values)

    def test_pruning_stable_under_dropout_draws(self, toy_graph):
        # Projections consume the rng in type order whether or not
        # non-encounter destinations are skipped.
        model = init_model(toy_graph, Hyper(hidden_dim=6, dropout=0.3), seed=4)
        p1, _, _ = forward(model, toy_graph, training=True, rng=np.random.default_rng(0))
        p2, _, _ = forward(
            model, toy_graph, training=True, rng=np.random.default_rng(0), all_types_last_layer=True
        )
        np.testing.assert_array_equal(p1.values, p2.values)

    def test_two_layer_forward_composes_single_layers(self, toy_graph):
        hyper = Hyper(hidden_dim=5, n_layers=2, dropout=0.0)
        model = init_model(toy_graph, hyper, seed=1)
        p, v, h = forward(model, toy_graph)
        feats = identity_features(make_view(toy_graph))
        mid = hetero_layer_forward(model.layers[0], toy_graph, feats, activation="relu")
        out = hetero_layer_forward(model.layers[1], toy_graph, mid, activation="relu")
        np.testing.assert_allclose(h.values, out["encounter"].values, atol=1e-12)

    def test_permutation_equivariance_encounters(self, toy_graph):
        rng = np.random.default_rng(6)
        feats = {
            "encounter": rng.standard_normal((4, 3)),
            "patient": rng.standard_normal((2, 3)),
            "lab": rng.standard_normal((3, 3)),
            "medication": rng.standard_normal((3, 3)),
        }
        model = init_model(toy_graph, SMALL, seed=3, feature_dims={t: 3 for t in feats})
        p, v, _ = forward(model, toy_graph, feats)

        perm = np.array([2, 0, 3, 1])
        view = make_view(toy_graph)
        permuted = TypedGraphView(
            view.types,
            view.counts,
            {
                ("encounter", "patient"): Membership(toy_graph.a_ep[perm], 2),
                ("encounter", "lab"): toy_graph.a_el[perm],
                ("encounter", "medication"): toy_graph.a_em[perm],
                ("patient", "encounter"): Membership(toy_graph.a_ep[perm], 2, transposed=True),
                ("lab", "encounter"): toy_graph.a_el[perm].T,
                ("medication", "encounter"): toy_graph.a_em[perm].T,
            },
        )
        feats_p = dict(feats, encounter=feats["encounter"][perm])
        p2, v2, _ = forward(model, permuted, feats_p)
        np.testing.assert_allclose(p2.values, p.values[perm], atol=1e-9)
        np.testing.assert_allclose(v2.values, v.values[perm], atol=1e-9)

    def test_permutation_equivariance_labs(self, toy_graph):
        rng = np.random.default_rng(7)
        feats = {
            "encounter": rng.standard_normal((4, 3)),
            "patient": rng.standard_normal((2, 3)),
            "lab": rng.standard_normal((3, 3)),
            "medication": rng.standard_normal((3, 3)),
        }
        model = init_model(toy_graph, SMALL, seed=3, feature_dims={t: 3 for t in feats})
        p, v, _ = forward(model, toy_graph, feats)

        perm = np.array([1, 2, 0])
        view = make_view(toy_graph)
        permuted = TypedGraphView(
            view.types,
            view.counts,
            {
                ("encounter", "patient"): Membership(toy_graph.a_ep, 2),
                ("encounter", "lab"): toy_graph.a_el[:, perm],
                ("encounter", "medication"): toy_graph.a_em,
                ("patient", "encounter"): Membership(toy_graph.a_ep, 2, transposed=True),
                ("lab", "encounter"): toy_graph.a_el[:, perm].T,
                ("medication", "encounter"): toy_graph.a_em.T,
            },
        )
        feats_p = dict(feats, lab=feats["lab"][perm])
        # The lab head's output columns follow lab ordinals, so its weight
        # columns and bias permute along.
        clone = model_from_bytes(model_to_bytes(model))
        clone.head_lab_w.values[:] = model.head_lab_w.values[:, perm]
        clone.head_lab_b.values[:] = model.head_lab_b.values[:, perm]
        p2, v2, _ = forward(clone, permuted, feats_p)
        np.testing.assert_allclose(v2.values, v.values[:, perm], atol=1e-9)
        np.testing.assert_allclose(p2.values, p.values, atol=1e-9)


class TestInductiveEmbed:
    def test_matches_forward_on_training_encounters(self, toy_graph):
        model = init_model(toy_graph, SMALL, seed=8)
        p, v, _ = forward(model, toy_graph)
        for i in range(4):
            p_row, v_row = inductive_embed(model, toy_graph, i)
            np.testing.assert_allclose(p_row, p.values[i], atol=1e-6)
            np.testing.assert_allclose(v_row, v.values[i], atol=1e-6)

    def test_new_encounter_gets_open_interval_outputs(self, toy_graph):
        model = init_model(toy_graph, SMALL, seed=8)
        ordinal = add_encounter(toy_graph, "P2", [("L1", 7.0)], "E5")
        p_row, v_row = inductive_embed(model, toy_graph, ordinal)
        assert np.all((p_row > 0.0) & (p_row < 1.0))
        assert np.all((v_row > 0.0) & (v_row < 1.0))

    def test_new_encounter_uses_neighbors_only(self, toy_graph):
        # With identity activation the new row decomposes exactly into
        # adjacency-weighted projections with a zero self-term.
        model = init_model(toy_graph, Hyper(hidden_dim=6, dropout=0.0, activation="identity"), seed=8)
        ordinal = add_encounter(toy_graph, "P1", [("L2", 120.0)], "E5")
        w = {t: model.layers[0][t].values for t in model.layers[0]}
        z = (
            np.eye(toy_graph.n_patients)[toy_graph.a_ep[ordinal]] @ w["patient"]
            + toy_graph.a_el[ordinal] @ w["lab"]
            + toy_graph.a_em[ordinal] @ w["medication"]
        )
        p_want = 1.0 / (1.0 + np.exp(-(z @ model.head_med_w.values + model.head_med_b.values[0])))
        p_row, _ = inductive_embed(model, toy_graph, ordinal)
        np.testing.assert_allclose(p_row, p_want, atol=1e-12)

    def test_model_untouched_by_inductive_call(self, toy_graph):
        model = init_model(toy_graph, SMALL, seed=8)
        before = hashlib.sha256(model_to_bytes(model)).hexdigest()
        ordinal = add_encounter(toy_graph, "P1", [])
        inductive_embed(model, toy_graph, ordinal)
        assert hashlib.sha256(model_to_bytes(model)).hexdigest() == before

    def test_ordinal_out_of_range(self, toy_graph):
        model = init_model(toy_graph, SMALL, seed=8)
        with pytest.raises(GraphLookupError):
            inductive_embed(model, toy_graph, 4)
        with pytest.raises(GraphLookupError):
            inductive_embed(model, toy_graph, -1)

    def test_training_rejected_on_grown_graph(self, toy_graph):
        model = init_model(toy_graph, Hyper(hidden_dim=6, dropout=0.2), seed=8)
        add_encounter(toy_graph, "P1", [])
        with pytest.raises(ShapeError):
            forward(model, toy_graph, training=True, rng=np.random.default_rng(0))


class TestCheckpoints:
    def test_roundtrip_forward_bit_identical(self, toy_graph):
        model = init_model(toy_graph, SMALL, seed=9)
        clone = model_from_bytes(model_to_bytes(model))
        p1, v1, _ = forward(model, toy_graph)
        p2, v2, _ = forward(clone, toy_graph)
        np.testing.assert_array_equal(p1.values, p2.values)
        np.testing.assert_array_equal(v1.values, v2.values)
        assert clone.hyper == model.hyper

    def test_file_roundtrip(self, toy_graph, tmp_path):
        model = init_model(toy_graph, SMALL, seed=9)
        path = tmp_path / "model.medgcn"
        save_model(model, path)
        loaded = load_model(path)
        for a, b in zip(model.parameters(), loaded.parameters()):
            np.testing.assert_array_equal(a.values, b.values)

    def test_serialization_deterministic(self, toy_graph):
        model = init_model(toy_graph, SMALL, seed=9)
        assert model_to_bytes(model) == model_to_bytes(model)

    def test_bad_magic(self):
        with pytest.raises(CheckpointError):
            model_from_bytes(b"WRONG\n{}\n")

    def test_truncated(self, toy_graph):
        blob = model_to_bytes(init_model(toy_graph, SMALL, seed=9))
        with pytest.raises(CheckpointError):
            model_from_bytes(blob[:-8])

    def test_verify_accepts_same_graph(self, toy_graph):
        model = init_model(toy_graph, SMALL, seed=9)
        verify_model_graph(model, toy_graph)

    def test_verify_accepts_grown_graph(self, toy_graph):
        model = init_model(toy_graph, SMALL, seed=9)
        add_encounter(toy_graph, "P1", [])
        verify_model_graph(model, toy_graph)

    def test_verify_rejects_different_nodes(self, toy_graph):
        model = init_model(toy_graph, SMALL, seed=9)
        other = build_graph(
            ["P1"], [("E1", "P1")], [("E1", "LX", 1.0)], [("E1", "MX")]
        )
        with pytest.raises(CheckpointError):
            verify_model_graph(model, other)

    def test_verify_rejects_shrunk_encounters(self, toy_graph):
        model = init_model(toy_graph, SMALL, seed=9)
        smaller = build_graph(
            ["P1", "P2"],
            [("E1", "P1"), ("E2", "P1"), ("E3", "P2")],
            [(e, c, v) for e, c, v in [("E1", "L1", 5.0), ("E1", "L2", 100.0), ("E2", "L1", 0.0), ("E2", "L3", 0.8), ("E3", "L2", 140.0)]],
            [("E1", "M1"), ("E1", "M2"), ("E2", "M2"), ("E3", "M3")],
        )
        with pytest.raises(CheckpointError):
            verify_model_graph(model, smaller)


class TestForwardRows:
    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("activation", ["relu", "identity"])
    def test_rows_match_the_batch_forward(self, toy_graph, n_layers, normalize, activation):
        hyper = Hyper(hidden_dim=6, n_layers=n_layers, dropout=0.0, activation=activation,
                      normalize_adjacency=normalize)
        model = init_model(toy_graph, hyper, seed=5)
        add_encounter(toy_graph, "P2", [("L1", 7.0), ("L2", 120.0)], "E5")
        add_encounter(toy_graph, "P1", [], "E6")
        want = forward(model, toy_graph)
        # Trained rows, appended rows, and a batch with a repeat.
        for rows in ([0], [3], [4], [5], [5, 0, 4, 4, 2]):
            got = forward(model, toy_graph, rows=rows)
            for g, w in zip(got, want):
                assert g.shape == (len(rows), w.cols)
                np.testing.assert_allclose(g.values, w.values[rows], rtol=0.0, atol=1e-12)

    def test_rows_on_a_view_with_explicit_features(self, toy_graph):
        rng = np.random.default_rng(3)
        feats = {t: rng.standard_normal((n, 3)) for t, n in make_view(toy_graph).counts.items()}
        hyper = Hyper(hidden_dim=5, n_layers=2, dropout=0.0)
        model = init_model(toy_graph, hyper, seed=2, feature_dims={t: 3 for t in feats})
        view = make_view(toy_graph, normalize_adjacency=True)
        p, v, h = forward(model, view, feats)
        rows = [2, 0, 3]
        pr, vr, hr = forward(model, view, feats, rows=rows)
        for got, want in ((pr, p), (vr, v), (hr, h)):
            np.testing.assert_allclose(got.values, want.values[rows], rtol=0.0, atol=1e-12)

    def test_rows_rejected_in_training(self, toy_graph):
        model = init_model(toy_graph, SMALL, seed=5)
        with pytest.raises(ParameterError):
            forward(model, toy_graph, training=True, rng=np.random.default_rng(0), rows=[0])

    @pytest.mark.parametrize("rows", [[-1], [4], [0, 4]])
    def test_rows_out_of_range(self, toy_graph, rows):
        model = init_model(toy_graph, SMALL, seed=5)
        with pytest.raises(GraphLookupError):
            forward(model, toy_graph, rows=rows)

    def test_rows_must_be_ordinals(self, toy_graph):
        model = init_model(toy_graph, SMALL, seed=5)
        with pytest.raises(ParameterError):
            forward(model, toy_graph, rows=[0.5])

    def test_one_row_forward_normalizes_one_lab_row(self, toy_graph, monkeypatch):
        import medgcn.graph as graph_mod

        model = init_model(toy_graph, SMALL, seed=8)
        p_full, v_full, _ = forward(model, toy_graph)
        normalize, shapes = graph_mod._normalize_matrix, []

        def recorded(raw_el, m_el, lab_norm):
            shapes.append(raw_el.shape)
            return normalize(raw_el, m_el, lab_norm)

        monkeypatch.setattr(graph_mod, "_normalize_matrix", recorded)
        p, v, _ = forward(model, toy_graph, rows=[2])
        assert shapes == [(1, toy_graph.n_labs)]
        np.testing.assert_array_equal(p.values[0], p_full.values[2])
        np.testing.assert_array_equal(v.values[0], v_full.values[2])

    def test_one_layer_embed_runs_no_full_graph_product(self, toy_graph, monkeypatch):
        import medgcn.autodiff as ad
        import medgcn.model as model_mod

        model = init_model(toy_graph, SMALL, seed=8)
        ordinal = add_encounter(toy_graph, "P1", [("L2", 120.0)], "E5")
        layer_calls, out_rows = [], []

        def counted(*args, **kwargs):
            layer_calls.append(1)
            return hetero_layer_forward(*args, **kwargs)

        monkeypatch.setattr(model_mod, "hetero_layer_forward", counted)
        for name in ("matmul", "take_rows", "scatter_rows"):
            original = getattr(ad, name)

            def recorded(*args, _original=original, **kwargs):
                out = _original(*args, **kwargs)
                out_rows.append(out.rows)
                return out

            monkeypatch.setattr(ad, name, recorded)
        p_row, _ = inductive_embed(model, toy_graph, ordinal)
        assert layer_calls == []
        assert out_rows and toy_graph.n_encounters not in out_rows
        assert p_row.shape == (toy_graph.n_medications,)
