"""Network building blocks operating on (batch, positions, channels) tensors.

Convolutions are position-wise: kernel size 1 and stride 1 by construction,
not by parameter. That is what makes a trained transceiver independent of the
block length it was trained at. The order in which the transceiver chains
these layers is defined once, in :mod:`vaecomm.model`.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateSignalError, DomainError, ShapeMismatchError
from .tensor import EXP_CLIP, Tensor, from_op


def glorot_uniform(rng: np.random.Generator, shape: tuple, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class Conv1D:
    """Position-wise (kernel-1) convolution: one affine map applied at every position.

    Weight layout is (out_channels, in_channels, 1), the layout checkpoints
    store; bias starts at zero and weights are Glorot-uniform from the
    supplied generator.
    """

    def __init__(self, in_channels: int, out_channels: int, *,
                 rng: np.random.Generator | None = None, name: str = "conv"):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.name = name
        rng = rng or np.random.default_rng()
        self.weight = Tensor(
            glorot_uniform(rng, (out_channels, in_channels, 1), in_channels, out_channels),
            requires_grad=True,
        )
        self.bias = Tensor(np.zeros(out_channels), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        if x.ndim != 3:
            raise ShapeMismatchError(f"{self.name}: expected (batch, len, channels), got {x.shape}")
        if x.shape[2] != self.in_channels:
            raise ShapeMismatchError(
                f"{self.name}: input has {x.shape[2]} channels, layer expects {self.in_channels}"
            )
        batch, length, _ = x.shape
        w2d = self.weight.data[:, :, 0].T  # (in, out)
        xd = x.data.reshape(batch * length, self.in_channels)
        out = (xd @ w2d + self.bias.data).reshape(batch, length, self.out_channels)
        w, b = self.weight, self.bias

        def grad(g):
            g2d = g.reshape(batch * length, self.out_channels)
            gx = (g2d @ w2d.T).reshape(x.shape)
            gw = (xd.T @ g2d).T[:, :, None]  # back to (out, in, 1)
            gb = g2d.sum(axis=0)
            return gx, gw, gb

        return from_op(out, (x, w, b), grad)


class BatchNorm1D:
    """Per-channel batch normalization over (batch, positions).

    Training normalizes with biased batch statistics and tracks running
    stats with the update r = momentum * r + (1 - momentum) * batch.
    Evaluation uses the running statistics only.
    """

    def __init__(self, channels: int, momentum: float = 0.99, epsilon: float = 1e-3,
                 *, name: str = "batchnorm"):
        self.channels = channels
        self.momentum = momentum
        self.epsilon = epsilon
        self.name = name
        self.training = True
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.shift = Tensor(np.zeros(channels), requires_grad=True)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)

    def __call__(self, x: Tensor) -> Tensor:
        if x.ndim != 3 or x.shape[2] != self.channels:
            raise ShapeMismatchError(f"{self.name}: expected (batch, len, {self.channels}), got {x.shape}")
        if self.training:
            if x.shape[0] < 2:
                raise DomainError(f"{self.name}: train mode needs batch size >= 2, got {x.shape[0]}")
            mean = x.data.mean(axis=(0, 1))
            var = x.data.var(axis=(0, 1))
            self.running_mean = self.momentum * self.running_mean + (1.0 - self.momentum) * mean
            self.running_var = self.momentum * self.running_var + (1.0 - self.momentum) * var
        else:
            mean = self.running_mean
            var = self.running_var

        inv = 1.0 / np.sqrt(var + self.epsilon)
        x_hat = (x.data - mean) * inv
        out = self.gamma.data * x_hat + self.shift.data
        gamma, training = self.gamma, self.training
        n = x.shape[0] * x.shape[1]

        def grad(g):
            ggamma = (g * x_hat).sum(axis=(0, 1))
            gshift = g.sum(axis=(0, 1))
            if training:
                gx = (gamma.data * inv) * (
                    g
                    - g.mean(axis=(0, 1))
                    - x_hat * (g * x_hat).sum(axis=(0, 1)) / n
                )
            else:
                gx = g * (gamma.data * inv)
            return gx, ggamma, gshift

        return from_op(out, (x, self.gamma, self.shift), grad)


class GaussianSampling:
    """Reparameterized draw h = mu + exp(logvar / 2) * eps.

    Training samples eps from the layer's seeded generator (or takes an
    injected eps for tests); evaluation returns mu unchanged.
    """

    def __init__(self, latent_dim: int, seed: int = 0):
        self.latent_dim = latent_dim
        self.seed = seed
        self.training = True
        self._rng = np.random.default_rng(seed)

    def __call__(self, mu: Tensor, logvar: Tensor, eps: np.ndarray | None = None) -> Tensor:
        if mu.shape != logvar.shape:
            raise ShapeMismatchError(f"mu/logvar shapes differ: {mu.shape} vs {logvar.shape}")
        if mu.shape[-1] != self.latent_dim:
            raise ShapeMismatchError(f"expected latent dim {self.latent_dim}, got {mu.shape[-1]}")
        if not self.training:
            return mu
        if eps is None:
            eps = self._rng.standard_normal(mu.shape)
        elif eps.shape != mu.shape:
            raise ShapeMismatchError(f"eps shape {eps.shape} does not match mu {mu.shape}")
        sigma = (logvar * 0.5).exp()
        return mu + sigma * Tensor(eps)


class PowerNormalization:
    """Scale each block so its mean squared entry is 1.

    Normalization pools over (positions x channels) per batch item; the
    per_position flag restricts pooling to each position's channel vector,
    which decouples positions entirely (used as a diagnostic).
    """

    def __init__(self, epsilon: float = 1e-12, per_position: bool = False):
        self.epsilon = epsilon
        self.per_position = per_position

    def __call__(self, x: Tensor) -> Tensor:
        if x.ndim != 3:
            raise ShapeMismatchError(f"expected (batch, len, channels), got {x.shape}")
        axes = (2,) if self.per_position else (1, 2)
        mean_sq = (x.data ** 2).mean(axis=axes, keepdims=True)
        if np.any(mean_sq <= self.epsilon):
            raise DegenerateSignalError("signal power below epsilon, cannot normalize")
        scale = np.sqrt(1.0 / mean_sq)  # not 1 / sqrt: that can differ in the last bit
        out = x.data * scale
        n = int(np.prod([x.shape[a] for a in axes]))
        xd = x.data

        def grad(g):
            dot = (g * xd).sum(axis=axes, keepdims=True)
            return (scale * (g - xd * dot / (n * mean_sq)),)

        return from_op(out, (x,), grad)


def elu(x: Tensor) -> Tensor:
    """exp(x) - 1 for x < 0, x otherwise; saturates to -1 for very negative x.

    ``neg`` is exactly 0 wherever x >= 0, so adding max(x, 0) selects the
    branch without a mask, and ``neg + 1`` is the slope on both sides.
    """
    d = x.data
    neg = np.clip(d, -EXP_CLIP, 0.0)
    np.exp(neg, out=neg)
    neg -= 1.0
    out = np.maximum(d, 0.0)
    out += neg

    def grad(g):
        slope = neg + 1.0
        slope *= g
        return (slope,)

    return from_op(out, (x,), grad)


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis, stabilized by subtracting the row max."""
    d = x.data
    shifted = d - d.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=-1, keepdims=True)

    def grad(g):
        inner = (g * p).sum(axis=-1, keepdims=True)
        return (p * (g - inner),)

    return from_op(p, (x,), grad)
