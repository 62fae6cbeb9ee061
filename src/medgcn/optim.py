"""Adam optimizer over tape-autodiff parameter tensors."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor
from .errors import ParameterError, StateError


@dataclass
class AdamState:
    """Per-parameter first/second moment accumulators."""

    m: np.ndarray
    v: np.ndarray


@dataclass
class Adam:
    """Bias-corrected Adam.

    step() consumes the accumulated .grad of every parameter and zeroes it,
    so each optimization step must be preceded by exactly one backward pass
    (or several, if gradient accumulation is intended).
    """

    params: list[Tensor]
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = field(default=0, init=False)
    state: list[AdamState] = field(default_factory=list, init=False)

    def __post_init__(self):
        # Chained so that NaN, which fails every comparison, is rejected too.
        if not 0.0 < self.lr < np.inf:
            raise ParameterError(f"learning rate must be a finite number > 0, got {self.lr}")
        if not 0.0 < self.eps < np.inf:
            raise ParameterError(f"eps must be a finite number > 0, got {self.eps}")
        if not 0.0 <= self.beta1 < 1.0 or not 0.0 <= self.beta2 < 1.0:
            raise ParameterError("betas must lie in [0, 1)")
        if not self.params:
            raise ParameterError("optimizer needs at least one parameter")
        for p in self.params:
            if not p.requires_grad:
                raise ParameterError("all optimized tensors must require gradients")
            self.state.append(AdamState(np.zeros_like(p.values), np.zeros_like(p.values)))

    def step(self) -> None:
        for i, p in enumerate(self.params):
            if p.grad is None:
                raise StateError(f"parameter {i} has no gradient; run backward before step")
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        # In place, in the float ops and order of m = b1*m + (1-b1)*g,
        # v = b2*v + (1-b2)*(g*g), p -= lr*(m/bc1) / (sqrt(v/bc2) + eps).
        for p, s in zip(self.params, self.state):
            g = p.grad
            tmp = g * (1.0 - self.beta1)
            s.m *= self.beta1
            s.m += tmp
            np.multiply(g, g, out=tmp)
            tmp *= 1.0 - self.beta2
            s.v *= self.beta2
            s.v += tmp
            np.divide(s.v, bc2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += self.eps
            step = s.m / bc1
            step *= self.lr
            step /= tmp
            p.values -= step
            p.grad = None
