"""Adam with bias-corrected first and second moments, on float64 master weights.

The optimizer keeps a float64 master copy of every parameter, and its
moments in float64. Each step updates the master copy and writes it back to
the parameter rounded to the parameter's dtype: a float32 system computes
in float32, while its weights accumulate their updates in float64, as in
mixed-precision training (Micikevicius et al., arXiv 1710.03740). For a
float64 parameter the rounding is exact, so the update is plain Adam.

The master weights, moments and gradients of all parameters live in one
flat buffer each, so a step is a few passes over those buffers rather than
a few passes per parameter; ``m`` and ``v`` are per-parameter views.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, ShapeMismatchError
from .tensor import Tensor

# the moments' decay rates and the denominator's offset, as Kingma & Ba set them
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


class Adam:
    def __init__(self, params: list[Tensor], lr: float = 0.01):
        if not 0.0 < lr < np.inf:  # a negative rate ascends, 0 never moves, NaN poisons
            raise DomainError(f"lr must be finite and > 0, got {lr}")
        self.params = list(params)
        self.lr = lr
        self.t = 0
        ends = np.cumsum([0] + [p.size for p in self.params])
        self._slices = [slice(a, b) for a, b in zip(ends[:-1], ends[1:])]
        self._master, self._m, self._v, self._g = (np.zeros(ends[-1]) for _ in range(4))
        self.master = self._views(self._master)
        self.m = self._views(self._m)
        self.v = self._views(self._v)
        for w, p in zip(self.master, self.params):
            w[...] = p.data
        self._written = [p.data for p in self.params]

    def _views(self, flat: np.ndarray) -> list[np.ndarray]:
        return [flat[s].reshape(p.shape) for s, p in zip(self._slices, self.params)]

    def step(self) -> None:
        """One update from the gradients stored on the parameters.

        A parameter with grad None is treated as having a zero gradient and
        stays exactly unchanged (its moments remain zero until it gets one).
        A parameter whose data was replaced since the last step restarts its
        master copy from the new data.
        """
        self.t += 1
        c1 = 1.0 - BETA1**self.t
        c2 = 1.0 - BETA2**self.t
        live = []
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            if p.grad.shape != p.data.shape:
                raise ShapeMismatchError(f"grad shape {p.grad.shape} vs param {p.data.shape}")
            if p.data is not self._written[i]:
                self.master[i][...] = p.data
            self._g[self._slices[i]] = p.grad.ravel()
            live.append(i)
        # one run of passes over all parameters when every one has a gradient
        runs = [slice(None)] if len(live) == len(self.params) else [self._slices[i] for i in live]
        for s in runs:
            m, v, g = self._m[s], self._v[s], self._g[s]
            # in place, in the operand order of
            # m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g,
            # p = p - lr * (m/c1) / (sqrt(v/c2) + eps)
            m *= BETA1
            m += (1.0 - BETA1) * g
            gg = g * g
            gg *= 1.0 - BETA2
            v *= BETA2
            v += gg
            step = m / c1
            step *= self.lr
            denom = v / c2
            np.sqrt(denom, out=denom)
            denom += EPSILON
            step /= denom
            self._master[s] -= step
        for i in live:
            p = self.params[i]
            p.data = self._written[i] = self.master[i].astype(p.data.dtype)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None
