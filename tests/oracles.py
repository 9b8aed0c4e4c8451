"""Oracles that tests check results against: a sampling estimate for
closed-form expectations, and the whole chain's stage outputs."""

from __future__ import annotations

import math

import numpy as np

from vaecomm.channels import ChannelModel
from vaecomm.errors import DomainError, ShapeMismatchError
from vaecomm.tensor import no_grad


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


def chain_stages(system, symbols, channel: ChannelModel | None = None) -> dict:
    """Every stage output of ``system.end_to_end``, by stage name, computed
    without a graph: the signal is ``"power_norm"``, the channel output
    ``"channel"`` and the logits ``"rx_conv2"``. Without ``channel`` the
    signal goes through the noise-free AWGN channel."""
    if channel is None:
        channel = ChannelModel("awgn", math.inf, system.config.code_rate)
    with no_grad():
        return dict(system.end_to_end(symbols, channel).stages)
