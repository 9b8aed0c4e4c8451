"""Network building blocks operating on (batch, positions, channels) tensors.

Convolutions are position-wise: kernel size 1 and stride 1 by construction,
not by parameter. That is what makes a trained transceiver independent of the
block length it was trained at. The order in which the transceiver chains
these layers is defined once, in :mod:`vaecomm.model`.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateSignalError, DomainError, ShapeMismatchError
from .tensor import SYSTEM_DTYPE, Tensor, exp_clip, from_op

BN_MOMENTUM = 0.99  # weight of the running statistics in each update
BN_EPSILON = 1e-3   # added to the variance before its square root
POWER_EPSILON = 1e-12  # a block whose mean square is at most this is degenerate


def glorot_uniform(rng: np.random.Generator, shape: tuple, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class Conv1D:
    """Position-wise (kernel-1) convolution: one affine map applied at every position.

    Weight layout is (out_channels, in_channels, 1), the layout checkpoints
    store; bias starts at zero and weights are Glorot-uniform from the
    supplied generator. Both are float32; the weights are drawn in float64
    and rounded, so the generator's stream does not depend on the dtype.
    """

    def __init__(self, in_channels: int, out_channels: int, *,
                 rng: np.random.Generator, name: str = "conv"):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.name = name
        weight = glorot_uniform(rng, (out_channels, in_channels, 1), in_channels, out_channels)
        self.weight = Tensor(weight.astype(SYSTEM_DTYPE), requires_grad=True)
        self.bias = Tensor(np.zeros(out_channels, dtype=SYSTEM_DTYPE), requires_grad=True)

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
        out = xd @ w2d
        out += self.bias.data
        out = out.reshape(batch, length, self.out_channels)
        w, b = self.weight, self.bias

        def grad(g):
            # a constant input (the one-hot messages) needs no gradient
            gx, gw, gb = conv1d_grads(xd, g.reshape(batch * length, self.out_channels),
                                      w2d, x.requires_grad)
            return (None if gx is None else gx.reshape(x.shape)), gw, gb

        return from_op(out, (x, w, b), grad)


def conv1d_grads(xd: np.ndarray, g2d: np.ndarray, w2d: np.ndarray,
                 need_gx: bool = True) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients of a kernel-1 convolution ``xd @ w2d + bias`` on (rows, channels)
    views: the input's (rows, in), or None without ``need_gx``; the weight's in
    the (out, in, 1) layout; the bias's. :class:`Conv1D` and the transmitter's
    per-symbol node both use it, so their gradients are the same arithmetic."""
    gx = g2d @ w2d.T if need_gx else None
    gw = (xd.T @ g2d).T[:, :, None]
    return gx, gw, g2d.sum(axis=0)


class BatchNorm1D:
    """Per-channel batch normalization over (batch, positions).

    Training normalizes with biased batch statistics and tracks running
    stats with the update r = m * r + (1 - m) * batch, m = ``BN_MOMENTUM``.
    Evaluation uses the running statistics only. Both modes add
    ``BN_EPSILON`` to the variance.

    Forward and backward work on the (batch * positions, channels) view and
    compute each full-width quantity once. The variance is sum(centered^2)/n,
    which is what ``np.var`` computes, and every expression keeps the operand
    order of the textbook formulas, so the results equal them bit for bit.
    """

    def __init__(self, channels: int, *, name: str = "batchnorm"):
        self.channels = channels
        self.name = name
        self.training = True
        self.gamma = Tensor(np.ones(channels, dtype=SYSTEM_DTYPE), requires_grad=True)
        self.shift = Tensor(np.zeros(channels, dtype=SYSTEM_DTYPE), requires_grad=True)
        self.running_mean = np.zeros(channels, dtype=SYSTEM_DTYPE)
        self.running_var = np.ones(channels, dtype=SYSTEM_DTYPE)

    def __call__(self, x: Tensor) -> Tensor:
        if x.ndim != 3 or x.shape[2] != self.channels:
            raise ShapeMismatchError(f"{self.name}: expected (batch, len, {self.channels}), got {x.shape}")
        xd = x.data.reshape(-1, self.channels)
        n = xd.shape[0]
        if self.training:
            if x.shape[0] < 2:
                raise DomainError(f"{self.name}: train mode needs batch size >= 2, got {x.shape[0]}")
            mean = xd.sum(axis=0) / n
            x_hat = xd - mean
            var = np.square(x_hat).sum(axis=0) / n
            self.running_mean = BN_MOMENTUM * self.running_mean + (1.0 - BN_MOMENTUM) * mean
            self.running_var = BN_MOMENTUM * self.running_var + (1.0 - BN_MOMENTUM) * var
        else:
            x_hat = xd - self.running_mean
            var = self.running_var

        inv = 1.0 / np.sqrt(var + BN_EPSILON)
        x_hat *= inv
        out = self.gamma.data * x_hat
        out += self.shift.data
        gamma, training = self.gamma, self.training

        def grad(g):
            g2d = g.reshape(-1, self.channels)
            gshift = g2d.sum(axis=0)
            proj = g2d * x_hat
            ggamma = proj.sum(axis=0)
            if training:
                np.multiply(x_hat, ggamma, out=proj)
                proj /= n
                gx = g2d - gshift / n
                gx -= proj
                gx *= gamma.data * inv
            else:
                gx = g2d * (gamma.data * inv)
            return gx.reshape(x.shape), ggamma, gshift

        return from_op(out.reshape(x.shape), (x, self.gamma, self.shift), grad)


class GaussianSampling:
    """Reparameterized draw h = mu + exp(logvar / 2) * eps.

    Training samples eps from the layer's seeded generator (or takes an
    injected eps for tests); evaluation returns mu unchanged. The draw is
    float64, as the generator's stream defines it, rounded to mu's dtype.
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
        return mu + sigma * Tensor(eps.astype(mu.dtype, copy=False))


class PowerNormalization:
    """Scale each block so its mean squared entry is 1.

    Normalization pools over (positions x channels) per batch item; the
    per_position flag restricts pooling to each position's channel vector,
    which decouples positions entirely (used as a diagnostic). Each block is
    first divided by the power of two just above its largest magnitude, and
    its gradient is scaled back by the same power. Scaling by a power of two
    is exact, so ordinary blocks keep every bit, and no square, mean square
    or backward product of a block of finite entries can overflow.
    """

    def __init__(self, per_position: bool = False):
        self.per_position = per_position

    def __call__(self, x: Tensor) -> Tensor:
        if x.ndim != 3:
            raise ShapeMismatchError(f"expected (batch, len, channels), got {x.shape}")
        axes = (2,) if self.per_position else (1, 2)
        _, exp2 = np.frexp(np.abs(x.data).max(axis=axes, keepdims=True))
        xd = np.ldexp(x.data, -exp2)
        mean_sq = (xd ** 2).mean(axis=axes, keepdims=True)
        # the unscaled mean square, exact in float64; one of a block with a
        # peak of 1/2 or more is at least 1/(4n), above epsilon, and is not
        # scaled back, so a float64 block cannot overflow here
        if np.any(np.ldexp(mean_sq.astype(np.float64), 2 * np.minimum(exp2, 0)) <= POWER_EPSILON):
            raise DegenerateSignalError("signal power below epsilon, cannot normalize")
        scale = np.sqrt(1.0 / mean_sq)  # not 1 / sqrt: that can differ in the last bit
        out = xd * scale
        n = int(np.prod([x.shape[a] for a in axes]))

        def grad(g):
            dot = (g * xd).sum(axis=axes, keepdims=True)
            return (np.ldexp(scale * (g - xd * dot / (n * mean_sq)), -exp2),)

        return from_op(out, (x,), grad)


def elu_parts(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ELU of an array, and ``neg``: the exp(x) - 1 branch, clipped to <= 0.

    ``neg`` is exactly 0 wherever x >= 0, so adding max(x, 0) selects the
    branch without a mask, and ``neg + 1`` is the slope on both sides.
    """
    neg = np.clip(d, -exp_clip(d.dtype), 0.0)
    np.exp(neg, out=neg)
    neg -= 1.0
    out = np.maximum(d, 0.0)
    out += neg
    return out, neg


def elu_slope(neg: np.ndarray, g: np.ndarray, rows=slice(None)) -> np.ndarray:
    """The ELU's input gradient: ``g`` times the slope ``neg + 1`` (``neg`` from
    :func:`elu_parts`), whose ``rows`` are taken first, so a table of outputs
    gathered back to positions gets each position's slope."""
    slope = (neg + 1.0)[rows]
    slope *= g
    return slope


def elu(x: Tensor) -> Tensor:
    """exp(x) - 1 for x < 0, x otherwise; saturates to -1 below -exp_clip."""
    out, neg = elu_parts(x.data)

    def grad(g):
        return (elu_slope(neg, g),)

    return from_op(out, (x,), grad)


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis, stabilized by subtracting the row max."""
    d = x.data
    p = d - d.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)

    def grad(g):
        gx = g * p
        inner = gx.sum(axis=-1, keepdims=True)
        np.subtract(g, inner, out=gx)
        gx *= p
        return (gx,)

    return from_op(p, (x,), grad)
