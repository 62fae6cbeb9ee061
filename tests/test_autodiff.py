"""Gradient checks for the tape-based autodiff engine.

The ground truth is central finite differences computed directly on numpy
arrays, independent of the tape machinery: for each leaf entry x_ij,
df/dx_ij ~ (f(x+h) - f(x-h)) / 2h with h = 1e-5.
"""

import numpy as np
import pytest

from medgcn import autodiff as ad
from medgcn.autodiff import (
    Tape,
    Tensor,
    add,
    add_bias,
    dropout,
    dropout_rows,
    log,
    matmul,
    mul,
    relu,
    scale,
    scatter_rows,
    sigmoid,
    sub,
    take_rows,
    tensor_sum,
)
from medgcn.errors import NumericGuardError, ParameterError, ShapeError, StateError

from oracles import scatter_add_oracle

H = 1e-5
GRAD_RTOL = 1e-4


def numeric_grad(f, leaves):
    """Central-difference gradient of scalar f() w.r.t. each leaf tensor.

    f must recompute the loss from the leaves' current .values each call.
    """
    grads = []
    for leaf in leaves:
        g = np.zeros_like(leaf.values)
        it = np.nditer(leaf.values, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = leaf.values[idx]
            leaf.values[idx] = orig + H
            up = f()
            leaf.values[idx] = orig - H
            down = f()
            leaf.values[idx] = orig
            g[idx] = (up - down) / (2.0 * H)
        grads.append(g)
    return grads


def tape_grad(build, leaves):
    """Run build() under a fresh tape, backprop, and return leaf grads."""
    for leaf in leaves:
        leaf.zero_grad()
    with Tape() as tape:
        loss = build()
    tape.backward(loss)
    return [leaf.grad for leaf in leaves]


def check_grads(build, leaves):
    analytic = tape_grad(build, leaves)
    numeric = numeric_grad(lambda: build().item(), leaves)
    for got, want in zip(analytic, numeric):
        assert got is not None
        np.testing.assert_allclose(got, want, rtol=GRAD_RTOL, atol=1e-7)


class TestOpGradients:
    def setup_method(self):
        self.rng = np.random.default_rng(7)

    def leaf(self, *shape):
        return Tensor(self.rng.standard_normal(shape), requires_grad=True)

    def test_matmul(self):
        a, b = self.leaf(3, 4), self.leaf(4, 2)
        check_grads(lambda: tensor_sum(mul(matmul(a, b), matmul(a, b))), [a, b])

    def test_add_sub_mul(self):
        a, b, c = self.leaf(3, 3), self.leaf(3, 3), self.leaf(3, 3)
        check_grads(lambda: tensor_sum(mul(add(a, b), sub(b, c))), [a, b, c])

    def test_scale(self):
        a = self.leaf(2, 5)
        check_grads(lambda: tensor_sum(scale(a, -2.5)), [a])

    def test_add_bias(self):
        a, bias = self.leaf(4, 3), self.leaf(1, 3)
        check_grads(lambda: tensor_sum(sigmoid(add_bias(a, bias))), [a, bias])

    def test_relu(self):
        a = self.leaf(5, 5)
        # Keep entries away from the kink so finite differences are valid.
        a.values[np.abs(a.values) < 0.05] = 0.1
        check_grads(lambda: tensor_sum(relu(a)), [a])

    def test_sigmoid(self):
        a = self.leaf(3, 4)
        check_grads(lambda: tensor_sum(sigmoid(a)), [a])

    def test_sigmoid_matches_masked_formula(self):
        # The former implementation, which branched through boolean masks.
        x = np.concatenate([[0.0, -0.0, 40.0, -40.0, 800.0, -800.0], 20.0 * self.rng.standard_normal(200)])
        x = x.reshape(2, 103)
        want = np.empty_like(x)
        pos = x >= 0.0
        want[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        want[~pos] = ex / (1.0 + ex)
        assert sigmoid(Tensor(x)).values.tobytes() == want.tobytes()

    def test_take_rows(self):
        b = self.leaf(3, 2)
        index = np.array([2, 0, 2, 1, 2])
        check_grads(lambda: tensor_sum(mul(take_rows(b, index), take_rows(b, index))), [b])

    def test_scatter_rows(self):
        b = self.leaf(5, 2)
        index = np.array([1, 0, 1, 3, 1])  # group 2 has no member
        row_scale = np.array([1.0, 1.0 / 3.0, 0.0, 1.0])

        def build():
            return tensor_sum(mul(scatter_rows(b, index, 4), scatter_rows(b, index, 4, row_scale)))

        check_grads(build, [b])

    def test_gather_and_scatter_equal_one_hot_products(self):
        b = self.rng.standard_normal((3, 4))
        index = np.array([2, 0, 2, 1, 2])
        one_hot = np.eye(3)[index]
        np.testing.assert_array_equal(take_rows(b, index).values, one_hot @ b)
        c = self.rng.standard_normal((5, 4))
        np.testing.assert_allclose(scatter_rows(c, index, 3).values, one_hot.T @ c, rtol=1e-15, atol=1e-15)

    def test_log(self):
        a = Tensor(self.rng.uniform(0.1, 2.0, (3, 4)), requires_grad=True)
        check_grads(lambda: tensor_sum(log(a)), [a])

    def test_composite_network(self):
        # One affine-sigmoid layer feeding a weighted log loss, touching
        # every differentiable op in a single graph.
        x = Tensor(self.rng.standard_normal((4, 3)))
        w = self.leaf(3, 2)
        bias = self.leaf(1, 2)
        target = Tensor(self.rng.uniform(0.2, 0.8, (4, 2)))

        def build():
            p = sigmoid(add_bias(matmul(x, w), bias))
            left = mul(target, log(p))
            right = mul(sub(Tensor(np.ones((4, 2))), target), log(sub(Tensor(np.ones((4, 2))), p)))
            return scale(tensor_sum(add(left, right)), -0.25)

        check_grads(build, [w, bias])

    def test_shared_operand(self):
        a = self.leaf(3, 3)
        grads = tape_grad(lambda: tensor_sum(mul(a, a)), [a])
        np.testing.assert_allclose(grads[0], 2.0 * a.values)

    def test_diamond_reuse(self):
        # The same intermediate feeds two branches; scratch accumulation
        # must merge both upstream contributions before continuing.
        a = self.leaf(3, 2)
        w = self.leaf(2, 2)

        def build():
            h = matmul(a, w)
            return tensor_sum(add(relu(h), sigmoid(h)))

        check_grads(build, [a, w])


class TestScatterAdd:
    """take_rows backward and scatter_rows forward sum rows per group; the
    sums must equal np.add.at's bit for bit, whose adding order is fixed."""

    CASES = [
        (np.array([1, 0, 1, 3, 1, 1, 0]), 5),  # repeated groups; groups 2 and 4 have no member
        (np.random.default_rng(0).integers(0, 4, 300), 4),  # long groups, where order shows
        (np.zeros(0, dtype=np.int64), 3),  # zero rows
    ]

    @staticmethod
    def spread(rng, shape):
        return rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)

    @pytest.mark.parametrize("index, n", CASES)
    def test_scatter_rows_forward(self, index, n):
        values = self.spread(np.random.default_rng(1), (index.size, 6))
        out = scatter_rows(values, index, n).values
        assert out.shape == (n, 6)
        assert out.tobytes() == scatter_add_oracle(index, values, n).tobytes()

    @pytest.mark.parametrize("index, n", CASES)
    def test_take_rows_backward(self, index, n):
        rng = np.random.default_rng(2)
        b = Tensor(rng.standard_normal((n, 6)), requires_grad=True)
        upstream = self.spread(rng, (index.size, 6))
        with Tape() as tape:
            loss = tensor_sum(mul(take_rows(b, index), Tensor(upstream)))
        tape.backward(loss)
        assert b.grad.tobytes() == scatter_add_oracle(index, upstream, n).tobytes()


class TestTapeSemantics:
    def test_interior_tensor_used_twice_gets_the_summed_gradient(self):
        a = Tensor([[1.0, -2.0], [0.5, 4.0]], requires_grad=True)
        with Tape() as tape:
            h = scale(a, 3.0)
            loss = tensor_sum(add(mul(h, h), add(h, h)))
        tape.backward(loss)
        np.testing.assert_array_equal(a.grad, 3.0 * (2.0 * h.values + 2.0))

    def test_leaves_fed_by_one_add_own_their_grads(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        with Tape() as tape:
            loss = tensor_sum(add(a, b))
        tape.backward(loss)
        assert not np.shares_memory(a.grad, b.grad)
        tape.backward(loss)
        a.grad += 10.0
        np.testing.assert_array_equal(b.grad, np.full((2, 3), 2.0))

    def test_backward_accumulates_across_calls(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        with Tape() as tape:
            loss = tensor_sum(mul(a, a))
        tape.backward(loss)
        first = a.grad.copy()
        tape.backward(loss)
        np.testing.assert_allclose(a.grad, 2.0 * first)

    def test_constants_get_no_grad(self):
        a = Tensor([[1.0, 2.0]], requires_grad=True)
        with Tape() as tape:
            loss = tensor_sum(add(a, np.array([[5.0, 6.0]])))
        tape.backward(loss)
        np.testing.assert_allclose(a.grad, np.ones((1, 2)))

    def test_no_tape_runs_without_recording(self):
        a = Tensor([[2.0]], requires_grad=True)
        out = mul(a, a)
        assert out.item() == 4.0
        assert a.grad is None

    def test_nested_tapes_restore_outer(self):
        with Tape() as outer:
            with Tape() as inner:
                assert Tape.current() is inner
            assert Tape.current() is outer
        assert Tape.current() is None

    def test_backward_rejects_nonscalar(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        with Tape() as tape:
            out = mul(a, a)
        with pytest.raises(ShapeError):
            tape.backward(out)

    def test_unreachable_branch_gets_no_grad(self):
        a = Tensor([[1.0]], requires_grad=True)
        b = Tensor([[2.0]], requires_grad=True)
        with Tape() as tape:
            mul(b, b)  # recorded but not part of the loss
            loss = tensor_sum(mul(a, a))
        tape.backward(loss)
        assert b.grad is None
        np.testing.assert_allclose(a.grad, [[2.0]])


class TestShapesAndGuards:
    def test_matmul_shape_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_add_shape_mismatch(self):
        with pytest.raises(ShapeError):
            add(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))

    def test_bias_must_be_row(self):
        with pytest.raises(ShapeError):
            add_bias(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_item_requires_scalar(self):
        with pytest.raises(ShapeError):
            Tensor(np.ones((2, 1))).item()

    def test_tensor_rejects_3d(self):
        with pytest.raises(ShapeError):
            Tensor(np.ones((2, 2, 2)))

    def test_scalar_and_vector_inputs_become_2d(self):
        assert Tensor(3.0).shape == (1, 1)
        assert Tensor([1.0, 2.0, 3.0]).shape == (1, 3)

    def test_nonfinite_result_raises(self):
        big = Tensor(np.full((2, 2), 1e200))
        with np.errstate(over="ignore"), pytest.raises(NumericGuardError):
            mul(big, big)

    def test_relu_subgradient_zero_at_kink(self):
        a = Tensor([[0.0, -1.0, 2.0]], requires_grad=True)
        with Tape() as tape:
            loss = tensor_sum(relu(a))
        tape.backward(loss)
        np.testing.assert_allclose(a.grad, [[0.0, 0.0, 1.0]])

    def test_sigmoid_extreme_inputs_stay_finite(self):
        a = Tensor([[-500.0, 500.0]], requires_grad=True)
        with Tape() as tape:
            loss = tensor_sum(sigmoid(a))
        tape.backward(loss)
        vals = sigmoid(a).values
        np.testing.assert_allclose(vals, [[0.0, 1.0]], atol=1e-100)
        np.testing.assert_allclose(a.grad, [[0.0, 0.0]], atol=1e-100)

    def test_log_clamps_at_floor(self):
        a = Tensor([[0.0, 1.0]], requires_grad=True)
        with Tape() as tape:
            loss = tensor_sum(log(a))
        tape.backward(loss)
        assert np.isfinite(loss.item())
        np.testing.assert_allclose(loss.item(), np.log(1e-12) + 0.0)
        np.testing.assert_allclose(a.grad, [[1e12, 1.0]])


class TestDropout:
    def test_eval_mode_is_identity(self):
        a = Tensor(np.arange(6.0).reshape(2, 3))
        out = dropout(a, 0.5, training=False)
        np.testing.assert_array_equal(out.values, a.values)

    def test_rate_zero_is_identity(self):
        a = Tensor(np.arange(6.0).reshape(2, 3))
        out = dropout(a, 0.0, training=True)
        np.testing.assert_array_equal(out.values, a.values)

    def test_rate_bounds(self):
        a = Tensor(np.ones((2, 2)))
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ParameterError):
                dropout(a, bad, training=True, rng=np.random.default_rng(0))

    def test_training_requires_rng(self):
        with pytest.raises(StateError):
            dropout(Tensor(np.ones((2, 2))), 0.5, training=True)

    def test_mask_scaling_exact(self):
        rng = np.random.default_rng(11)
        ref = np.random.default_rng(11)
        a = Tensor(np.ones((8, 8)))
        out = dropout(a, 0.3, training=True, rng=rng)
        keep = ref.random((8, 8)) >= 0.3
        np.testing.assert_allclose(out.values, keep / 0.7)

    def test_backward_reuses_forward_mask(self):
        rng = np.random.default_rng(5)
        a = Tensor(np.full((4, 4), 2.0), requires_grad=True)
        with Tape() as tape:
            out = dropout(a, 0.5, training=True, rng=rng)
            loss = tensor_sum(out)
        tape.backward(loss)
        np.testing.assert_allclose(a.grad * 2.0, out.values)

    def test_expected_value_preserved(self):
        rng = np.random.default_rng(123)
        a = Tensor(np.ones((300, 300)))
        out = dropout(a, 0.4, training=True, rng=rng)
        assert abs(out.values.mean() - 1.0) < 0.01

    def test_row_dropout_kills_whole_rows(self):
        rng = np.random.default_rng(3)
        a = Tensor(np.ones((20, 6)))
        out = dropout_rows(a, 0.5, training=True, rng=rng)
        for row in out.values:
            assert np.all(row == 0.0) or np.allclose(row, 2.0)
        assert np.any(out.values == 0.0)

    def test_row_dropout_single_draw_per_row(self):
        # One uniform per row: the same seed must yield the same row pattern
        # regardless of column count.
        a6 = Tensor(np.ones((10, 6)))
        a2 = Tensor(np.ones((10, 2)))
        out6 = dropout_rows(a6, 0.4, training=True, rng=np.random.default_rng(9))
        out2 = dropout_rows(a2, 0.4, training=True, rng=np.random.default_rng(9))
        np.testing.assert_array_equal(out6.values[:, 0] == 0.0, out2.values[:, 0] == 0.0)

    def test_row_dropout_equals_broadcast_factor(self):
        rng = np.random.default_rng(21)
        a = Tensor(rng.standard_normal((9, 5)), requires_grad=True)
        upstream = rng.standard_normal((9, 5))
        with Tape() as tape:
            out = dropout_rows(a, 0.3, training=True, rng=np.random.default_rng(4))
            loss = tensor_sum(mul(out, Tensor(upstream)))
        tape.backward(loss)
        keep = np.random.default_rng(4).random((9, 1)) >= 0.3
        factor = np.broadcast_to(keep / 0.7, (9, 5)).copy()
        assert out.values.tobytes() == (a.values * factor).tobytes()
        assert a.grad.tobytes() == (upstream * factor).tobytes()

    def test_row_dropout_gradient(self):
        rng = np.random.default_rng(17)
        a = Tensor(np.full((6, 3), 3.0), requires_grad=True)
        with Tape() as tape:
            out = dropout_rows(a, 0.5, training=True, rng=rng)
            loss = tensor_sum(out)
        tape.backward(loss)
        np.testing.assert_allclose(a.grad * 3.0, out.values)


def test_module_exposes_finite_check_flag():
    assert isinstance(ad.CHECK_FINITE, bool)


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


class TestSumRelu:
    """sum_relu stands for the chain add(...add(add(t0, t1), t2)...) then
    relu (or identity); values and gradients must be the chain's bit for bit."""

    @staticmethod
    def graph(n_terms, shared):
        # Terms come from a dense product, a gather (membership product), a
        # scatter (transposed membership) and the self term; with shared
        # set, the self term also feeds the gather, so its gradient sums
        # contributions from inside and outside the fused node.
        rng = np.random.default_rng(n_terms)
        n, h = 5, 3
        leaves = {
            "self": Tensor(rng.standard_normal((n, h)), requires_grad=True),
            "dense_w": Tensor(rng.standard_normal((4, h)), requires_grad=True),
            "gather_w": Tensor(rng.standard_normal((3, h)), requires_grad=True),
            "scatter_w": Tensor(rng.standard_normal((7, h)), requires_grad=True),
        }
        adj = (rng.random((n, 4)) < 0.5).astype(float)
        gather_index = np.array([0, 2, 2, 1, 0])
        scatter_index = np.array([0, 4, 1, 1, 3, 0, 2])
        upstream = rng.standard_normal((n, h))

        def terms():
            self_term = scale(leaves["self"], 1.5)
            out = [self_term]
            if shared:
                out.append(take_rows(self_term, np.array([4, 3, 2, 1, 0])))
            else:
                out.append(take_rows(leaves["gather_w"], gather_index))
            out.append(matmul(Tensor(adj), leaves["dense_w"]))
            out.append(scatter_rows(leaves["scatter_w"], scatter_index, n))
            return out[:n_terms], upstream

        return leaves, terms

    @staticmethod
    def run(leaves, terms, fused, relu_on):
        for leaf in leaves.values():
            leaf.zero_grad()
        with Tape() as tape:
            parts, upstream = terms()
            if fused:
                out = ad.sum_relu(parts, rectify=relu_on)
            else:
                out = parts[0]
                for t in parts[1:]:
                    out = add(out, t)
                out = relu(out) if relu_on else out
            loss = tensor_sum(mul(out, Tensor(upstream)))
        tape.backward(loss)
        return out.values, {name: leaf.grad for name, leaf in leaves.items()}

    @pytest.mark.parametrize("n_terms", [2, 3, 4])
    @pytest.mark.parametrize("relu_on", [True, False])
    @pytest.mark.parametrize("shared", [False, True])
    def test_matches_the_add_chain_and_activation(self, n_terms, relu_on, shared):
        leaves, terms = self.graph(n_terms, shared)
        want_values, want_grads = self.run(leaves, terms, False, relu_on)
        got_values, got_grads = self.run(leaves, terms, True, relu_on)
        assert _bits(got_values) == _bits(want_values)
        for name, want in want_grads.items():
            got = got_grads[name]
            assert (got is None) == (want is None), name
            if want is not None:
                assert _bits(got) == _bits(want), name

    def test_one_identity_term_is_passed_through(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        assert ad.sum_relu([a], rectify=False) is a

    def test_is_one_tape_node_with_one_finite_check(self, monkeypatch):
        checks = []
        monkeypatch.setattr(ad, "_check_finite", lambda values: checks.append(values.shape))
        parts = [Tensor(np.ones((2, 3)), requires_grad=True) for _ in range(4)]
        with Tape() as tape:
            ad.sum_relu(parts)
        assert len(tape) == 1 and checks == [(2, 3)]

    def test_non_finite_sum_raises(self):
        big = Tensor(np.full((1, 2), 1e308))
        with np.errstate(over="ignore"), pytest.raises(NumericGuardError):
            ad.sum_relu([big, big])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ad.sum_relu([Tensor(np.ones((2, 2))), Tensor(np.ones((2, 3)))])


class TestFreshGradients:
    def test_a_leaf_on_both_sides_of_a_product_sums_both_gradients(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, -1.0]]), requires_grad=True)
        with Tape() as tape:
            loss = tensor_sum(matmul(x, x))
        tape.backward(loss)
        ones = np.ones((2, 2))
        np.testing.assert_array_equal(x.grad, ones @ x.values.T + x.values.T @ ones)

    def test_leaf_keeps_its_own_gradient_across_backward_calls(self):
        rng = np.random.default_rng(3)
        w = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        b = Tensor(rng.standard_normal((1, 2)), requires_grad=True)
        x = Tensor(rng.standard_normal((4, 3)))
        with Tape() as tape:
            loss = tensor_sum(dropout_rows(add_bias(matmul(x, w), b), 0.5, True, np.random.default_rng(0)))
        tape.backward(loss)
        first_w, first_b = w.grad.copy(), b.grad.copy()
        tape.backward(loss)
        np.testing.assert_array_equal(w.grad, 2.0 * first_w)
        np.testing.assert_array_equal(b.grad, 2.0 * first_b)
