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

    def accumulate_grad(self, g: np.ndarray) -> None:
        if g.shape != self.values.shape:
            raise ShapeError(f"gradient shape {g.shape} != value shape {self.values.shape}")
        if self.grad is None:
            self.grad = g.copy()
        else:
            self.grad += g

    def __repr__(self) -> str:
        return f"Tensor(shape={self.values.shape}, requires_grad={self.requires_grad})"

    def __matmul__(self, other) -> "Tensor":
        return matmul(self, other)

    def __add__(self, other) -> "Tensor":
        return add(self, other)

    def __sub__(self, other) -> "Tensor":
        return sub(self, other)

    def __mul__(self, other) -> "Tensor":
        return mul(self, other)


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


def _push(t: Tensor, g: np.ndarray, scratch: dict) -> None:
    """Route a gradient contribution to a tensor: leaves get .grad, interior
    nodes accumulate in the sweep-local scratch map."""
    if not t.requires_grad:
        return
    if t.is_leaf:
        t.accumulate_grad(g)
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
            _push(a, g @ b.values.T, scratch)
        if b.requires_grad:
            _push(b, a.values.T @ g, scratch)

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
            _push(bias, g.sum(axis=0, keepdims=True), scratch)

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


def sigmoid(a) -> Tensor:
    """Numerically stable logistic function: 1 / (1 + e^-x) for x >= 0 and
    e^x / (1 + e^x) below, both computed from e = exp(-|x|) <= 1."""
    a = as_tensor(a)
    x = a.values
    e = np.exp(-np.abs(x))
    vals = np.where(x >= 0.0, 1.0, e)
    vals /= 1.0 + e
    out = Tensor(vals, requires_grad=a.requires_grad)
    _check_finite(out.values)

    def backward_fn(g, scratch):
        _push(a, g * vals * (1.0 - vals), scratch)

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
        _push(a, g * factor, scratch)

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
        _push(a, g * factor, scratch)

    _maybe_record(out, backward_fn)
    return out
