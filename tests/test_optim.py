"""Adam optimizer checks against a standalone numpy reference."""

import numpy as np
import pytest

from medgcn.autodiff import Tape, Tensor, matmul, mul, sub, tensor_sum
from medgcn.errors import ParameterError, StateError
from medgcn.optim import Adam


def reference_adam(x0, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Textbook Adam applied to a fixed gradient sequence."""
    x = x0.copy()
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * (g * g)
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        x = x - lr * m_hat / (np.sqrt(v_hat) + eps)
    return x


class TestAdam:
    def test_matches_reference_on_fixed_gradients(self):
        rng = np.random.default_rng(42)
        x0 = rng.standard_normal((3, 4))
        grads = [rng.standard_normal((3, 4)) for _ in range(10)]

        p = Tensor(x0.copy(), requires_grad=True)
        opt = Adam([p], lr=0.05)
        for g in grads:
            p.grad = g.copy()
            opt.step()

        np.testing.assert_allclose(p.values, reference_adam(x0, grads, 0.05), rtol=1e-12)

    def test_in_place_step_is_bit_equal_to_the_formula(self):
        rng = np.random.default_rng(5)
        x0 = rng.standard_normal((4, 3))
        grads = [rng.standard_normal((4, 3)) * 10.0 ** rng.integers(-6, 3, (4, 3)) for _ in range(5)]
        p = Tensor(x0.copy(), requires_grad=True)
        opt = Adam([p], lr=0.01)
        for g in grads:
            p.grad = g
            kept = g.copy()
            opt.step()
            assert p.grad is None
            assert g.tobytes() == kept.tobytes()  # step only reads the gradient
        assert p.values.tobytes() == reference_adam(x0, grads, 0.01).tobytes()

    def test_first_step_is_signed_lr(self):
        p = Tensor([[1.0, -2.0, 3.0]], requires_grad=True)
        p.grad = np.array([[0.5, -4.0, 1e-3]])
        Adam([p], lr=0.01).step()
        # With bias correction, step one moves each entry by lr * sign(g)
        # up to the eps cushion.
        np.testing.assert_allclose(p.values, [[0.99, -1.99, 2.99]], atol=1e-5)

    def test_quadratic_bowl_converges(self):
        target = np.array([[2.0, -1.0], [0.5, 3.0]])
        p = Tensor(np.zeros((2, 2)), requires_grad=True)
        opt = Adam([p], lr=0.01)
        for _ in range(2000):
            with Tape() as tape:
                d = sub(p, Tensor(target))
                loss = tensor_sum(mul(d, d))
            tape.backward(loss)
            opt.step()
        assert np.abs(p.values - target).max() < 1e-3

    def test_step_without_grad_raises(self):
        p = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(StateError):
            Adam([p]).step()

    def test_partial_grads_rejected_before_any_update(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 2)), requires_grad=True)
        a.grad = np.ones((2, 2))
        opt = Adam([a, b], lr=0.1)
        before = a.values.copy()
        with pytest.raises(StateError):
            opt.step()
        np.testing.assert_array_equal(a.values, before)

    def test_grads_cleared_after_step(self):
        p = Tensor(np.ones((2, 2)), requires_grad=True)
        p.grad = np.ones((2, 2))
        opt = Adam([p])
        opt.step()
        assert p.grad is None

    def test_step_counter_advances(self):
        p = Tensor(np.ones((1, 1)), requires_grad=True)
        opt = Adam([p])
        for expected in (1, 2, 3):
            p.grad = np.ones((1, 1))
            opt.step()
            assert opt.t == expected

    def test_rejects_bad_hyperparameters(self):
        p = Tensor(np.ones((1, 1)), requires_grad=True)
        with pytest.raises(ParameterError):
            Adam([p], lr=0.0)
        with pytest.raises(ParameterError):
            Adam([p], beta1=1.0)
        with pytest.raises(ParameterError):
            Adam([], lr=0.1)
        with pytest.raises(ParameterError):
            Adam([Tensor(np.ones((1, 1)))])

    def test_training_through_tape(self):
        # Fit a 1-parameter linear model y = x w on noiseless data.
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((20, 1)))
        y = Tensor(x.values * 3.0)
        w = Tensor([[0.0]], requires_grad=True)
        opt = Adam([w], lr=0.05)
        for _ in range(500):
            with Tape() as tape:
                d = sub(matmul(x, w), y)
                loss = tensor_sum(mul(d, d))
            tape.backward(loss)
            opt.step()
        assert abs(w.values[0, 0] - 3.0) < 1e-4


@pytest.mark.parametrize("kwargs", [
    {"lr": float("nan")}, {"lr": float("inf")}, {"lr": 0.0},
    {"eps": 0.0}, {"eps": -1e-8}, {"eps": float("nan")}, {"eps": float("inf")},
])
def test_non_finite_or_non_positive_lr_and_eps_rejected(kwargs):
    # A NaN lr used to construct and then write NaN weights on the first step.
    with pytest.raises(ParameterError):
        Adam([Tensor(np.ones((2, 2)), requires_grad=True)], **kwargs)
