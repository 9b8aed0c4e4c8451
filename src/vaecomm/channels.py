"""Differentiable channel models between transmitter and receiver.

Noise variance per real dimension follows from Eb/N0 and the rate R (bits
per channel use): sigma^2 = 1 / (2 * R * 10^(ebno_db / 10)). Both channels
pass gradients through to the input; fading coefficients and noise are
treated as constants of the draw. Noise and fading are drawn in float64, so
the streams do not depend on the signal's dtype, and rounded to it.

An Eb/N0 of +inf is the noise-free channel; NaN and -inf are rejected,
because they would make the noise itself NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, ShapeMismatchError
from .tensor import Tensor, from_op

CHANNEL_KINDS = ("awgn", "rayleigh")


def check_ebno_db(ebno_db: float) -> float:
    """Return ebno_db, or raise DomainError if it is NaN or -inf."""
    if math.isnan(ebno_db) or ebno_db == -math.inf:
        raise DomainError(f"Eb/N0 must be a number of dB or +inf, got {ebno_db}")
    return ebno_db


def noise_variance(ebno_db: float, code_rate: float) -> float:
    """Per-real-dimension noise variance at a given Eb/N0 in dB."""
    check_ebno_db(ebno_db)
    if code_rate <= 0.0:
        raise DomainError(f"code_rate must be positive, got {code_rate}")
    return 1.0 / (2.0 * code_rate * 10.0 ** (ebno_db / 10.0))


@dataclass
class ChannelModel:
    """A seeded channel. Each apply() draws fresh noise from the stream;
    rebuilding with the same seed replays the identical sequence.
    """

    kind: str
    ebno_db: float
    code_rate: float
    rng_seed: int = 0
    per_symbol_fading: bool = False
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        if self.kind not in CHANNEL_KINDS:
            raise ConfigError(f"unknown channel kind {self.kind!r}, choose from {CHANNEL_KINDS}")
        if self.code_rate <= 0.0:
            raise ConfigError(f"code_rate must be positive, got {self.code_rate}")
        check_ebno_db(self.ebno_db)
        self._rng = np.random.default_rng(self.rng_seed & ((1 << 64) - 1))

    def noise_std(self) -> float:
        return float(np.sqrt(noise_variance(self.ebno_db, self.code_rate)))

    def apply(self, x: Tensor) -> Tensor:
        if x.ndim != 3:
            raise ShapeMismatchError(f"expected (batch, len, dim) signal, got {x.shape}")
        if self.kind == "awgn":
            return self.apply_awgn(x)
        return self.apply_rayleigh(x)

    def apply_awgn(self, x: Tensor) -> Tensor:
        noise = self._rng.standard_normal(x.shape) * self.noise_std()
        return x + Tensor(noise.astype(x.dtype, copy=False))  # gradient passes straight through

    def apply_rayleigh(self, x: Tensor, h: np.ndarray | None = None) -> Tensor:
        """Flat Rayleigh block fading on consecutive (I, Q) pairs.

        One complex h per block (or per position with per_symbol_fading),
        h = h_re + j h_im with h_re, h_im ~ N(0, 1/2) so E[|h|^2] = 1.
        The backward pass applies the transposed rotation-scaling, i.e. the
        fading coefficient structure exactly.
        """
        batch, length, dim = x.shape
        if dim % 2 != 0:
            raise ShapeMismatchError(f"rayleigh needs an even signal dim, got {dim}")
        if h is None:
            hshape = (batch, length, 1) if self.per_symbol_fading else (batch, 1, 1)
            h = self._rng.standard_normal(hshape + (2,)) * np.sqrt(0.5)
        h = np.asarray(h).astype(x.dtype, copy=False)
        # trailing singleton keeps h broadcastable over the dim/2 pair axis
        h_re, h_im = h[..., 0], h[..., 1]

        xr = x.data[..., 0::2]
        xi = x.data[..., 1::2]
        out = np.empty_like(x.data)
        out[..., 0::2] = h_re * xr - h_im * xi
        out[..., 1::2] = h_im * xr + h_re * xi
        out += (self._rng.standard_normal(x.shape) * self.noise_std()).astype(x.dtype, copy=False)

        def grad(g):
            gr = g[..., 0::2]
            gi = g[..., 1::2]
            gx = np.empty_like(g)
            gx[..., 0::2] = h_re * gr + h_im * gi
            gx[..., 1::2] = -h_im * gr + h_re * gi
            return (gx,)

        return from_op(out, (x,), grad)
