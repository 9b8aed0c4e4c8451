"""Adam with bias-corrected first and second moments."""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatchError
from .tensor import Tensor


class Adam:
    def __init__(self, params: list[Tensor], lr: float = 0.01,
                 beta1: float = 0.9, beta2: float = 0.999, epsilon: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        """One update from the gradients stored on the parameters.

        A parameter with grad None is treated as having a zero gradient and
        stays exactly unchanged (its moments remain zero until it gets one).
        """
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                continue
            if g.shape != p.data.shape:
                raise ShapeMismatchError(f"grad shape {g.shape} vs param {p.data.shape}")
            m, v = self.m[i], self.v[i]
            # in place, in the operand order of
            # m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g,
            # p = p - lr * (m/c1) / (sqrt(v/c2) + eps)
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            gg = g * g
            gg *= 1.0 - self.beta2
            v *= self.beta2
            v += gg
            step = m / c1
            step *= self.lr
            denom = v / c2
            np.sqrt(denom, out=denom)
            denom += self.epsilon
            step /= denom
            p.data = p.data - step

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None
