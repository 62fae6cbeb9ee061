"""Reverse-mode autodiff over dense 2-D float64 matrices.

Every operation computes its result eagerly with numpy and, when a Tape is
active and the result needs gradients, records a backward closure on the
tape.  Because operands must exist before an op runs, the tape's recording
order is already topological, so one reverse sweep propagates gradients
correctly.  Gradients are accumulated into the ``.grad`` of leaf tensors
(parameters); intermediate gradients live only in a per-sweep scratch map.

Scope is deliberately small: 2-D matrices only, no broadcasting beyond the
explicit row-bias op, no higher-order derivatives.  Products with one-hot
membership matrices run as row gathers and scatter-adds over an integer
index (take_rows, scatter_rows) instead of dense matmuls.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .errors import NumericGuardError, ParameterError, ShapeError, StateError

# Elementwise log arguments are clamped at this floor as a second guard
# behind the saturation checks in the losses.
LOG_EPS = 1e-12

# Finite-value checking after each op; disabled under `python -O`.
CHECK_FINITE = __debug__


def _check_finite(values: np.ndarray) -> None:
    if CHECK_FINITE and not np.isfinite(values).all():
        raise NumericGuardError("operation produced NaN or infinity from finite inputs")


class Tensor:
    """A rows x cols float64 matrix, optionally carrying a gradient."""

    __slots__ = ("values", "requires_grad", "grad", "is_leaf")

    def __init__(self, values, requires_grad: bool = False):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        elif arr.ndim != 2:
            raise ShapeError(f"tensors are 2-D, got shape {arr.shape}")
        self.values = arr
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self.is_leaf = True

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def item(self) -> float:
        if self.values.shape != (1, 1):
            raise ShapeError(f"item() needs a 1x1 tensor, got {self.values.shape}")
        return float(self.values[0, 0])

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: np.ndarray, fresh: bool = False) -> None:
        """Add g to .grad.  A fresh g (made by the caller for this call and
        held by nothing else) may become .grad itself; any other g is copied."""
        if g.shape != self.values.shape:
            raise ShapeError(f"gradient shape {g.shape} != value shape {self.values.shape}")
        if self.grad is None:
            self.grad = g if fresh else g.copy()
        else:
            self.grad += g

    def __repr__(self) -> str:
        return f"Tensor(shape={self.values.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    """Wrap arrays/scalars as constant (no-grad) tensors; pass tensors through."""
    if isinstance(x, Tensor):
        return x
    return Tensor(x, requires_grad=False)


class Tape:
    """Execution-ordered record of differentiable ops.

    Use as a context manager around the forward computation; ops executed
    while the tape is active record themselves.  ``backward(loss)`` then
    deposits d(loss)/d(leaf) into every requires_grad leaf reachable from
    the loss.  Repeated backward calls accumulate.
    """

    _active: Optional["Tape"] = None

    def __init__(self):
        # Each node: (output tensor, backward closure).  The closure takes
        # (upstream gradient, scratch grad map) and pushes gradients to the
        # op's inputs via _push.
        self._nodes: list[tuple[Tensor, Callable[[np.ndarray, dict], None]]] = []
        self._outer: Optional[Tape] = None

    def __enter__(self) -> "Tape":
        self._outer = Tape._active
        Tape._active = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        Tape._active = self._outer
        self._outer = None

    @classmethod
    def current(cls) -> Optional["Tape"]:
        return cls._active

    def record(self, out: Tensor, backward_fn: Callable[[np.ndarray, dict], None]) -> None:
        out.is_leaf = False
        self._nodes.append((out, backward_fn))

    def __len__(self) -> int:
        return len(self._nodes)

    def backward(self, loss: Tensor) -> None:
        if loss.values.shape != (1, 1):
            raise ShapeError(f"backward needs a scalar (1x1) loss, got {loss.values.shape}")
        scratch: dict[int, np.ndarray] = {id(loss): np.ones((1, 1))}
        if loss.is_leaf and loss.requires_grad:
            loss.accumulate_grad(scratch[id(loss)])
        for out, backward_fn in reversed(self._nodes):
            g = scratch.pop(id(out), None)
            if g is None:
                continue
            backward_fn(g, scratch)


def _push(t: Tensor, g: np.ndarray, scratch: dict, fresh: bool = False) -> None:
    """Route a gradient contribution to a tensor: leaves get .grad, interior
    nodes accumulate in the sweep-local scratch map.  fresh marks a g the
    calling op has just made and passes to nothing else."""
    if not t.requires_grad:
        return
    if t.is_leaf:
        t.accumulate_grad(g, fresh)
    else:
        # Out of place, so g may be an array another node also holds.
        key = id(t)
        scratch[key] = scratch[key] + g if key in scratch else g


def _maybe_record(out: Tensor, backward_fn) -> None:
    tape = Tape.current()
    if tape is not None and out.requires_grad:
        tape.record(out, backward_fn)


def matmul(a, b) -> Tensor:
    """Matrix product a @ b.  Backward: dA += g @ B^T, dB += A^T @ g."""
    a, b = as_tensor(a), as_tensor(b)
    if a.cols != b.rows:
        raise ShapeError(f"matmul inner dims disagree: {a.shape} x {b.shape}")
    out = Tensor(a.values @ b.values, requires_grad=a.requires_grad or b.requires_grad)
    _check_finite(out.values)

    def backward_fn(g, scratch):
        if a.requires_grad:
            _push(a, g @ b.values.T, scratch, fresh=True)
        if b.requires_grad:
            _push(b, a.values.T @ g, scratch, fresh=True)

    _maybe_record(out, backward_fn)
    return out


def add(a, b) -> Tensor:
    """Elementwise sum of two equal-shape matrices."""
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"add shape mismatch: {a.shape} vs {b.shape}")
    out = Tensor(a.values + b.values, requires_grad=a.requires_grad or b.requires_grad)
    _check_finite(out.values)

    def backward_fn(g, scratch):
        _push(a, g, scratch)
        _push(b, g, scratch)

    _maybe_record(out, backward_fn)
    return out


def sub(a, b) -> Tensor:
    """Elementwise difference a - b."""
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"sub shape mismatch: {a.shape} vs {b.shape}")
    out = Tensor(a.values - b.values, requires_grad=a.requires_grad or b.requires_grad)
    _check_finite(out.values)

    def backward_fn(g, scratch):
        _push(a, g, scratch)
        if b.requires_grad:
            _push(b, -g, scratch)

    _maybe_record(out, backward_fn)
    return out


def mul(a, b) -> Tensor:
    """Elementwise (Hadamard) product of two equal-shape matrices."""
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"mul shape mismatch: {a.shape} vs {b.shape}")
    out = Tensor(a.values * b.values, requires_grad=a.requires_grad or b.requires_grad)
    _check_finite(out.values)

    def backward_fn(g, scratch):
        if a.requires_grad:
            _push(a, g * b.values, scratch)
        if b.requires_grad:
            _push(b, g * a.values, scratch)

    _maybe_record(out, backward_fn)
    return out


def scale(a, c: float) -> Tensor:
    """Multiply by a python scalar constant."""
    a = as_tensor(a)
    c = float(c)
    out = Tensor(a.values * c, requires_grad=a.requires_grad)
    _check_finite(out.values)

    def backward_fn(g, scratch):
        _push(a, g * c, scratch)

    _maybe_record(out, backward_fn)
    return out


def add_bias(a, bias) -> Tensor:
    """Add a 1 x cols bias row to every row of a.  Backward sums over rows."""
    a, bias = as_tensor(a), as_tensor(bias)
    if bias.rows != 1 or bias.cols != a.cols:
        raise ShapeError(f"bias must be 1x{a.cols}, got {bias.shape}")
    out = Tensor(a.values + bias.values, requires_grad=a.requires_grad or bias.requires_grad)
    _check_finite(out.values)

    def backward_fn(g, scratch):
        _push(a, g, scratch)
        if bias.requires_grad:
            _push(bias, g.sum(axis=0, keepdims=True), scratch, fresh=True)

    _maybe_record(out, backward_fn)
    return out


def relu(a) -> Tensor:
    """max(0, x) elementwise; subgradient at exactly 0 is 0."""
    a = as_tensor(a)
    out = Tensor(np.maximum(a.values, 0.0), requires_grad=a.requires_grad)

    def backward_fn(g, scratch):
        _push(a, g * (a.values > 0.0), scratch)

    _maybe_record(out, backward_fn)
    return out


def sum_relu(terms, rectify: bool = True) -> Tensor:
    """terms[0] + terms[1] + ... summed left to right, then ReLU when
    rectify is set (identity otherwise): one node with the values and
    gradients of the chain of add nodes and the relu it stands for.

    terms may be any iterable; each term is added as it arrives and, unless
    a tape is recording, released before the next is made.
    """
    recording = Tape.current() is not None
    it = iter(terms)
    first = as_tensor(next(it))
    shape, requires_grad = first.shape, first.requires_grad
    kept = [first] if recording else []
    vals = None
    for t in it:
        t = as_tensor(t)
        if t.shape != shape:
            raise ShapeError(f"add shape mismatch: {shape} vs {t.shape}")
        if vals is None:
            vals = first.values + t.values
            del first
        else:
            vals += t.values
        requires_grad = requires_grad or t.requires_grad
        if recording:
            kept.append(t)
        # Dropped before the next term is made; kept holds it for a tape.
        del t
    if vals is None:
        if not rectify:
            return first
        vals = first.values.copy()
    _check_finite(vals)
    if rectify:
        # out > 0 exactly where the sum is, so backward reads the mask off out.
        np.maximum(vals, 0.0, out=vals)
    out = Tensor(vals, requires_grad=requires_grad)

    def backward_fn(g, scratch):
        if rectify:
            g = g * (vals > 0.0)
        for t in kept:
            _push(t, g, scratch)

    _maybe_record(out, backward_fn)
    return out


def sigmoid(a) -> Tensor:
    """Numerically stable logistic function: 1 / (1 + e^-x) for x >= 0 and
    e^x / (1 + e^x) below, both computed from e = exp(-|x|) <= 1."""
    a = as_tensor(a)
    x = a.values
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    vals = np.where(x >= 0.0, 1.0, e)
    e += 1.0
    vals /= e
    out = Tensor(vals, requires_grad=a.requires_grad)
    _check_finite(out.values)

    def backward_fn(g, scratch):
        local = g * vals
        local *= 1.0 - vals
        _push(a, local, scratch, fresh=True)

    _maybe_record(out, backward_fn)
    return out


def _scatter_add(index: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """out[k] = sum of values[i] over i with index[i] == k, for k < n: one
    bincount over the flat cell index, adding in order of i as np.add.at does."""
    h = values.shape[1]
    flat = (index[:, None] * h + np.arange(h)).ravel()
    return np.bincount(flat, weights=values.ravel(), minlength=n * h).reshape(n, h)


def take_rows(b, index: np.ndarray) -> Tensor:
    """Rows of b picked by an integer vector: out[i] = b[index[i]].

    This equals the product M @ b with the one-hot matrix M[i, index[i]] = 1,
    without building M.  Backward scatter-adds the gradient rows back onto
    the picked rows (M^T g).
    """
    b = as_tensor(b)
    out = Tensor(b.values[index], requires_grad=b.requires_grad)

    def backward_fn(g, scratch):
        _push(b, _scatter_add(index, g, b.rows), scratch)

    _maybe_record(out, backward_fn)
    return out


def scatter_rows(b, index: np.ndarray, n: int, row_scale: Optional[np.ndarray] = None) -> Tensor:
    """Sum the rows of b into n rows by an integer vector:
    out[k] = sum of b[i] over i with index[i] == k, then multiplied by
    row_scale[k] when given.

    This is M^T @ b for the one-hot matrix M[i, index[i]] = 1, the adjoint
    of take_rows; backward gathers the (scaled) gradient rows.
    """
    b = as_tensor(b)
    vals = _scatter_add(index, b.values, n)
    if row_scale is not None:
        vals *= row_scale[:, None]
    out = Tensor(vals, requires_grad=b.requires_grad)
    _check_finite(out.values)

    def backward_fn(g, scratch):
        if row_scale is not None:
            g = g * row_scale[:, None]
        _push(b, g[index], scratch)

    _maybe_record(out, backward_fn)
    return out


def log(a, eps: float = LOG_EPS) -> Tensor:
    """Natural log with inputs clamped below at eps to avoid log(0)."""
    a = as_tensor(a)
    clamped = np.maximum(a.values, eps)
    out = Tensor(np.log(clamped), requires_grad=a.requires_grad)
    _check_finite(out.values)

    def backward_fn(g, scratch):
        _push(a, g / clamped, scratch)

    _maybe_record(out, backward_fn)
    return out


def tensor_sum(a) -> Tensor:
    """Sum all entries into a 1x1 tensor."""
    a = as_tensor(a)
    out = Tensor(np.array([[a.values.sum()]]), requires_grad=a.requires_grad)
    _check_finite(out.values)

    def backward_fn(g, scratch):
        _push(a, np.full(a.values.shape, g[0, 0]), scratch)

    _maybe_record(out, backward_fn)
    return out


def masked_square_error(a, targets: np.ndarray, mask: np.ndarray, c: float) -> Tensor:
    """c * sum(mask * (a - targets)^2) as one 1x1 node; targets and mask are
    float64 constants of a's shape.  Value and gradient are those of the
    chain sub, mul, mul by mask, tensor_sum, scale it stands for."""
    a = as_tensor(a)
    c = float(c)
    d = a.values - targets
    sq = d * d
    sq *= mask
    out = Tensor(np.array([[sq.sum()]]) * c, requires_grad=a.requires_grad)
    _check_finite(out.values)

    def backward_fn(g, scratch):
        # The chain's (full(g * c) * mask) * d, once per operand of d * d.
        t = mask * (g[0, 0] * c)
        t *= d
        _push(a, np.add(t, t, out=t), scratch, fresh=True)

    _maybe_record(out, backward_fn)
    return out


def logistic_loss(z, rows: np.ndarray, neg_coef: np.ndarray, pos_coef: np.ndarray, c: float) -> Tensor:
    """c * sum(neg_coef * x + pos_coef * softplus(-x)) over x = z[rows] (distinct
    rows), as one 1x1 node.  With neg_coef = 1 - y and pos_coef = 1 + (w-1) * y
    this is the cross entropy of sigmoid(x) against y with positives weighted
    by w, finite for every finite logit; softplus(-x) = max(-x, 0) + log1p(e^-|x|)."""
    z = as_tensor(z)
    c = float(c)
    x = z.values[rows]
    e = np.exp(-np.abs(x))
    softplus = np.maximum(-x, 0.0) + np.log1p(e)
    out = Tensor(np.array([[(neg_coef * x + pos_coef * softplus).sum()]]) * c, requires_grad=z.requires_grad)
    _check_finite(out.values)

    def backward_fn(g, scratch):
        # d softplus(-x)/dx = -sigmoid(-x), taken stably from e.
        sig_neg = np.where(x >= 0.0, e, 1.0)
        sig_neg /= 1.0 + e
        local = neg_coef - pos_coef * sig_neg
        local *= g[0, 0] * c
        grad = np.zeros(z.values.shape)
        grad[rows] = local
        _push(z, grad, scratch, fresh=True)

    _maybe_record(out, backward_fn)
    return out


def dropout(a, rate: float, training: bool, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout: zero entries with probability rate and scale
    survivors by 1/(1-rate) during training; identity in eval mode."""
    a = as_tensor(a)
    if not 0.0 <= rate < 1.0:
        raise ParameterError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return a
    if rng is None:
        raise StateError("training-mode dropout needs a seeded generator")
    keep = rng.random(a.values.shape) >= rate
    factor = keep / (1.0 - rate)
    out = Tensor(a.values * factor, requires_grad=a.requires_grad)

    def backward_fn(g, scratch):
        _push(a, g * factor, scratch, fresh=True)

    _maybe_record(out, backward_fn)
    return out


def dropout_rows(a, rate: float, training: bool, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Drop whole rows of a with probability rate (inverted scaling).

    Equivalent to entrywise dropout applied to a one-hot identity feature
    matrix followed by projection: the off-diagonal zeros are unaffected by
    masking, so only the diagonal (one draw per row) matters.
    """
    a = as_tensor(a)
    if not 0.0 <= rate < 1.0:
        raise ParameterError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return a
    if rng is None:
        raise StateError("training-mode dropout needs a seeded generator")
    factor = (rng.random((a.rows, 1)) >= rate) / (1.0 - rate)
    out = Tensor(a.values * factor, requires_grad=a.requires_grad)

    def backward_fn(g, scratch):
        _push(a, g * factor, scratch, fresh=True)

    _maybe_record(out, backward_fn)
    return out
