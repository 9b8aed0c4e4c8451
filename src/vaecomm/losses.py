"""Variational loss terms.

Reductions follow one convention everywhere: sum over the last axis (latent
dims or categories), then mean over whatever leading axes remain (batch and
block positions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeMismatchError
from .tensor import Tensor, from_op

PRED_CLIP = 1e-12
_LOG_LO = math.log(PRED_CLIP)
_LOG_HI = math.log1p(-PRED_CLIP)


@dataclass(frozen=True)
class LossBreakdown:
    total: float
    kl_term: float
    reconstruction_term: float
    beta: float


def kl_standard_normal(mu: Tensor, logvar: Tensor) -> Tensor:
    """KL(N(mu, exp(logvar)) || N(0, I)) in closed form.

    Per example: -0.5 * sum_j (1 + logvar_j - mu_j^2 - exp(logvar_j)),
    then averaged over leading axes. Always >= 0, and 0 only at mu=0, logvar=0.
    """
    if mu.shape != logvar.shape:
        raise ShapeMismatchError(f"mu/logvar shapes differ: {mu.shape} vs {logvar.shape}")
    per = 1.0 + logvar - mu.square() - logvar.exp()
    return per.sum(axis=-1).mean() * -0.5


def softmax_binary_cross_entropy(logits: Tensor, target: Tensor) -> Tensor:
    """Multi-label BCE of p = softmax(logits) over the last axis:
    -sum_m [t log p + (1-t) log(1-p)], averaged over leading axes, with p
    clipped to [1e-12, 1 - 1e-12] first.

    One autodiff node with a gradient for ``logits`` only; the softmax is not
    a node of its own. Both logs come from the logits: log p = z - lse(z),
    and log(1 - p) is log1p(-p) for every entry but the row's largest (there
    p <= 1/2) and log(sum of the others' e^z) - lse(z) at the largest, whose
    others are summed directly, since S - e_max would cancel. The clip is
    applied to the logs, [log 1e-12, log1p(-1e-12)], where float32 can hold
    both ends (1 - 1e-12 rounds to 1 in float32). As for the clip of p, the
    gradient with respect to p is zero wherever p lies outside the clip.
    """
    if logits.shape != target.shape:
        raise ShapeMismatchError(f"logits/target shapes differ: {logits.shape} vs {target.shape}")
    t = target.data
    hit = t == 1.0
    if not np.all(hit | (t == 0.0)):
        raise DomainError("target entries must be exactly 0 or 1")
    z = logits.data
    top = z.argmax(axis=-1)[..., None]
    lp = z - np.take_along_axis(z, top, axis=-1)  # 0 at the top entry
    p = np.exp(lp)
    np.put_along_axis(p, top, 0.0, axis=-1)
    rest = p.sum(axis=-1, keepdims=True)  # the top entry's others: S = 1 + rest
    log_s = np.log1p(rest)
    lp -= log_s  # log p
    p /= 1.0 + rest
    # log(1 - p): log1p(-p) off the top entry, where p <= 1/2, and
    # log(rest / S) at it; rest may underflow to 0, and the clip takes -inf
    lq = np.log1p(-p)
    with np.errstate(divide="ignore"):
        np.put_along_axis(lq, top, np.log(rest) - log_s, axis=-1)
    np.put_along_axis(p, top, 1.0 / (1.0 + rest), axis=-1)
    q_top = rest / (1.0 + rest)  # 1 - p at the top entry
    keep = lp >= _LOG_LO  # p inside the clip (false for NaN)
    keep &= lp <= _LOG_HI
    keep &= lq >= _LOG_LO
    keep &= lq <= _LOG_HI
    np.clip(lq, _LOG_LO, _LOG_HI, out=lq)
    term = np.clip(lp, _LOG_LO, _LOG_HI)
    np.copyto(term, lq, where=~hit)  # t log p + (1 - t) log(1 - p) for 0/1 targets
    sums = term.sum(axis=-1)
    n = sums.size

    def grad(g):
        # dL/dz = a - p * sum(a), a = c * keep * (t - (1 - t) * p / (1 - p)).
        # Outside the clip lp - lq <= -log(1e-12), so the exp stays finite.
        c = -g / n
        a = lp - lq
        np.exp(a, out=a)
        np.negative(a, out=a)
        np.copyto(a, 1.0, where=hit)
        a *= keep
        a *= c
        a_top = np.take_along_axis(a, top, axis=-1)
        np.put_along_axis(a, top, 0.0, axis=-1)
        others = a.sum(axis=-1, keepdims=True)
        gz = p * (others + a_top)
        np.subtract(a, gz, out=gz)
        # at the top entry a * (1 - p) - p * others, where a * (1 - p) is
        # c * keep * (t * (1 - p) - (1 - t) * p): a - p * sum(a) would cancel
        # two terms of size |c| / (1 - p) there
        p_top = np.take_along_axis(p, top, axis=-1)
        gain = np.where(np.take_along_axis(hit, top, axis=-1), q_top, -p_top)
        gain *= np.take_along_axis(keep, top, axis=-1)
        gain *= c
        gain -= p_top * others
        np.put_along_axis(gz, top, gain, axis=-1)
        return (gz,)

    return from_op(-sums.mean(), (logits,), grad)


def beta_vae_loss(logits: Tensor, target: Tensor, mu: Tensor, logvar: Tensor,
                  beta: float) -> tuple[Tensor, LossBreakdown]:
    """Total loss to minimize: beta * KL + BCE of softmax(logits).

    Returns the differentiable scalar plus a float breakdown of the terms.
    """
    if not 0.0 <= beta < np.inf:  # also false for NaN
        raise DomainError(f"beta must be finite and non-negative, got {beta}")
    kl = kl_standard_normal(mu, logvar)
    recon = softmax_binary_cross_entropy(logits, target)
    total = kl * beta + recon
    return total, LossBreakdown(
        total=float(total),
        kl_term=float(kl),
        reconstruction_term=float(recon),
        beta=beta,
    )

