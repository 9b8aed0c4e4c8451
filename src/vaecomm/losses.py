"""Variational loss terms.

Reductions follow one convention everywhere: sum over the last axis (latent
dims or categories), then mean over whatever leading axes remain (batch and
block positions).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeMismatchError
from .tensor import LOG_FLOOR, Tensor, from_op

PRED_CLIP = 1e-12


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


def binary_cross_entropy(pred: Tensor, target: Tensor) -> Tensor:
    """Multi-label BCE: -sum_m [t log p + (1-t) log(1-p)], averaged over
    leading axes. Predictions are clipped to [1e-12, 1 - 1e-12] first.

    One autodiff node with a gradient for ``pred`` only. Its value and
    gradient equal those of the same formula composed from Tensor ops (clip,
    floored log, products, sum, mean) bit for bit: each expression below is
    one of that graph's forward or backward steps, at most with the operands
    of a product or sum swapped, which leaves every bit unchanged.
    """
    if pred.shape != target.shape:
        raise ShapeMismatchError(f"pred/target shapes differ: {pred.shape} vs {target.shape}")
    t = target.data
    if not np.all((t == 0.0) | (t == 1.0)):
        raise DomainError("target entries must be exactly 0 or 1")
    p = pred.data
    pc = np.clip(p, PRED_CLIP, 1.0 - PRED_CLIP)
    # pc >= PRED_CLIP == LOG_FLOOR, so only log(1 - pc) can reach the floor:
    # 1 - (1 - PRED_CLIP) rounds to just below it
    safe_q = 1.0 - pc
    above_floor = safe_q >= LOG_FLOOR
    np.maximum(safe_q, LOG_FLOOR, out=safe_q)
    # term = t * log(pc) + (1 - t) * log(safe_q), in as few buffers as possible
    term = 1.0 - t
    off = np.log(safe_q)
    off *= term
    np.log(pc, out=term)
    term *= t
    term += off
    sums = term.sum(axis=-1)
    n = sums.size

    def grad(g):
        c = -g / n
        g_off = 1.0 - t
        g_off *= c
        g_off /= safe_q
        g_off *= above_floor
        gp = c * t
        gp /= pc
        gp -= g_off
        gp *= pc == p  # the clip's mask: true iff lo <= p <= hi (false for NaN)
        return (gp,)

    return from_op(-sums.mean(), (pred,), grad)


def beta_vae_loss(pred: Tensor, target: Tensor, mu: Tensor, logvar: Tensor,
                  beta: float) -> tuple[Tensor, LossBreakdown]:
    """Total loss to minimize: beta * KL + BCE.

    Returns the differentiable scalar plus a float breakdown of the terms.
    """
    if beta < 0.0:
        raise DomainError(f"beta must be non-negative, got {beta}")
    kl = kl_standard_normal(mu, logvar)
    recon = binary_cross_entropy(pred, target)
    total = kl * beta + recon
    return total, LossBreakdown(
        total=float(total),
        kl_term=float(kl),
        reconstruction_term=float(recon),
        beta=beta,
    )


def monte_carlo_expectation(f, mu: np.ndarray, logvar: np.ndarray,
                            n_samples: int, seed: int) -> float | np.ndarray:
    """Estimate E_{h ~ N(mu, exp(logvar))}[f(h)] by reparameterized sampling.

    Draws are stacked on a new leading axis, so ``f`` receives an array of
    shape (n_samples, *mu.shape) and must be vectorized over it. Used as the
    sampling-based oracle against closed-form expectations.
    """
    if n_samples < 1:
        raise DomainError(f"n_samples must be >= 1, got {n_samples}")
    mu = np.asarray(mu, dtype=np.float64)
    logvar = np.asarray(logvar, dtype=np.float64)
    if mu.shape != logvar.shape:
        raise ShapeMismatchError(f"mu/logvar shapes differ: {mu.shape} vs {logvar.shape}")
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal((n_samples,) + mu.shape)
    h = mu + np.exp(0.5 * logvar) * eps
    vals = np.asarray(f(h), dtype=np.float64)
    est = vals.mean(axis=0)
    return est.item() if np.ndim(est) == 0 or est.size == 1 else est
