"""Classical Gray-coded modem baselines and their analytic error rates.

Bit-to-point conventions are pinned here once:

* QPSK: two bits (b0, b1), I = (1 - 2 b0)/sqrt(2), Q = (1 - 2 b1)/sqrt(2),
  so bits 00 map to (1 + j)/sqrt(2).
* 16QAM: four bits, (b0, b1) pick the I level and (b2, b3) the Q level via
  the Gray ladder 00 -> -3, 01 -> -1, 11 -> +1, 10 -> +3, scaled by
  1/sqrt(10) for unit average symbol energy.

Point index equals the MSB-first integer value of the bit group. The Rayleigh
option uses coherent detection with perfect CSI (divide by h), the textbook
reference receiver; the learned system never sees CSI, so the comparison is
deliberately favourable to the baseline.

SciPy is required, but only the analytic curves load it: ``qfunc`` imports
``erfc`` on the first ``analytic_ber`` or ``analytic_ser`` call, which
``vaecomm baseline`` makes on AWGN. ``import vaecomm`` and every other command
run without SciPy, which would be most of a cold import's time.

Each ``baseline_bler`` call logs one INFO line (constellation, Eb/N0, blocks,
block errors, seconds, bits/s) on the ``vaecomm.baselines`` logger.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .channels import CHANNEL_KINDS, noise_variance
from .curves import wilson_interval
from .errors import ConfigError, DomainError, ShapeMismatchError

log = logging.getLogger(__name__)

_GRAY_PAM4 = {0b00: -3.0, 0b01: -1.0, 0b11: 1.0, 0b10: 3.0}

CONSTELLATION_NAMES = ("qpsk", "16qam", "qam16")  # qam16 is another name for 16qam


def qfunc(x):
    """Gaussian tail probability Q(x) = 0.5 erfc(x / sqrt(2))."""
    from scipy.special import erfc  # SciPy loads here, on the first analytic curve

    return 0.5 * erfc(np.asarray(x, dtype=np.float64) / math.sqrt(2.0))


@dataclass(frozen=True)
class Constellation:
    name: str
    points: np.ndarray  # complex, indexed by the MSB-first bit pattern
    bits_per_symbol: int

    @staticmethod
    def qpsk() -> "Constellation":
        pts = np.empty(4, dtype=np.complex128)
        for b0 in (0, 1):
            for b1 in (0, 1):
                pts[(b0 << 1) | b1] = ((1 - 2 * b0) + 1j * (1 - 2 * b1)) / math.sqrt(2.0)
        return Constellation("qpsk", pts, 2)

    @staticmethod
    def qam16() -> "Constellation":
        pts = np.empty(16, dtype=np.complex128)
        for pattern in range(16):
            i_level = _GRAY_PAM4[(pattern >> 2) & 0b11]
            q_level = _GRAY_PAM4[pattern & 0b11]
            pts[pattern] = (i_level + 1j * q_level) / math.sqrt(10.0)
        return Constellation("16qam", pts, 4)

    @staticmethod
    def by_name(name: str) -> "Constellation":
        if name not in CONSTELLATION_NAMES:
            raise ConfigError(
                f"unknown constellation {name!r}, choose from {list(CONSTELLATION_NAMES)}")
        return Constellation.qpsk() if name == "qpsk" else Constellation.qam16()


def modulate(c: Constellation, bits: np.ndarray) -> np.ndarray:
    """Map a flat 0/1 array onto constellation points, MSB first per group."""
    bits = np.asarray(bits)
    if bits.ndim != 1 or bits.size % c.bits_per_symbol != 0:
        raise ShapeMismatchError(
            f"bit count {bits.size} not a multiple of {c.bits_per_symbol}"
        )
    if not np.all((bits == 0) | (bits == 1)):
        raise DomainError("bits must be 0 or 1")
    groups = bits.reshape(-1, c.bits_per_symbol)
    weights = 1 << np.arange(c.bits_per_symbol - 1, -1, -1)
    return c.points[groups @ weights]


def demodulate_hard(c: Constellation, symbols: np.ndarray) -> np.ndarray:
    """Nearest-point decisions back to bits; ties take the lowest index."""
    symbols = np.asarray(symbols, dtype=np.complex128).ravel()
    d2 = np.abs(symbols[:, None] - c.points[None, :]) ** 2
    idx = np.argmin(d2, axis=1)
    shifts = np.arange(c.bits_per_symbol - 1, -1, -1)
    return ((idx[:, None] >> shifts) & 1).reshape(-1).astype(np.int64)


def analytic_ber(c: Constellation, ebno_db) -> float | np.ndarray:
    """Gray-coded BER over AWGN: QPSK exact, 16QAM nearest-neighbour form."""
    g = 10.0 ** (np.asarray(ebno_db, dtype=np.float64) / 10.0)
    if c.name == "qpsk":
        out = qfunc(np.sqrt(2.0 * g))
    elif c.name == "16qam":
        out = 0.75 * qfunc(np.sqrt(0.8 * g))
    else:
        raise ConfigError(f"no analytic BER for {c.name!r}")
    return float(out) if np.ndim(out) == 0 else out


def analytic_ser(c: Constellation, ebno_db) -> float | np.ndarray:
    """Exact constellation-symbol error rate over AWGN."""
    g = 10.0 ** (np.asarray(ebno_db, dtype=np.float64) / 10.0)
    if c.name == "qpsk":
        q = qfunc(np.sqrt(2.0 * g))
        out = 2.0 * q - q * q
    elif c.name == "16qam":
        p_axis = 1.5 * qfunc(np.sqrt(0.8 * g))
        out = 1.0 - (1.0 - p_axis) ** 2
    else:
        raise ConfigError(f"no analytic SER for {c.name!r}")
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class BaselineResult:
    bler: float
    ser: float
    ber: float
    ci_low: float   # 95% interval on bler
    ci_high: float
    blocks: int
    block_errors: int
    symbol_errors: int
    bit_errors: int
    bits: int


def baseline_bler(c: Constellation, ebno_db: float, k: int, L: int, n_blocks: int,
                  seed: int, channel: str = "awgn",
                  chunk_blocks: int = 4096) -> BaselineResult:
    """Monte Carlo error rates for blocks of L symbols of k bits each.

    Each k-bit message symbol spans k / bits_per_symbol constellation uses,
    matching the spectral efficiency of a learned system with R = k/n equal
    to the constellation's bits per channel use. A block errs when any of its
    L message symbols errs; a message symbol errs when any of its k bits does.
    """
    if k < 1 or L < 1 or n_blocks < 1:
        raise DomainError(f"k, L, n_blocks must be positive, got {k}, {L}, {n_blocks}")
    if chunk_blocks < 1:
        raise DomainError(f"chunk_blocks must be >= 1, got {chunk_blocks}")
    if (k * L) % c.bits_per_symbol != 0:
        raise ConfigError(
            f"block of {k * L} bits does not fill whole {c.name} symbols"
        )
    if channel not in CHANNEL_KINDS:
        raise ConfigError(f"unknown channel {channel!r}")

    start = time.perf_counter()
    sigma = math.sqrt(noise_variance(ebno_db, float(c.bits_per_symbol)))
    rng = np.random.default_rng(seed)
    bits_per_block = k * L
    block_errors = 0
    symbol_errors = 0
    bit_errors = 0

    done = 0
    while done < n_blocks:
        nb = min(chunk_blocks, n_blocks - done)
        bits = rng.integers(0, 2, size=nb * bits_per_block)
        tx = modulate(c, bits)
        noise = (rng.standard_normal(tx.shape) + 1j * rng.standard_normal(tx.shape)) * sigma
        if channel == "rayleigh":
            h = (rng.standard_normal(tx.shape) + 1j * rng.standard_normal(tx.shape)) * math.sqrt(0.5)
            rx = (h * tx + noise) / h  # perfect-CSI coherent equalization
        else:
            rx = tx + noise
        decided = demodulate_hard(c, rx)
        wrong = (decided != bits).reshape(nb, L, k)
        bit_errors += int(wrong.sum())
        sym_wrong = wrong.any(axis=2)
        symbol_errors += int(sym_wrong.sum())
        block_errors += int(sym_wrong.any(axis=1).sum())
        done += nb

    seconds = time.perf_counter() - start
    log.info("%s: Eb/N0 %s dB, %d blocks, %d block errors, %.3f s, %.0f bits/s",
             c.name, ebno_db, n_blocks, block_errors, seconds,
             n_blocks * bits_per_block / seconds)
    ci_low, ci_high = wilson_interval(block_errors, n_blocks)
    return BaselineResult(
        bler=block_errors / n_blocks,
        ser=symbol_errors / (n_blocks * L),
        ber=bit_errors / (n_blocks * bits_per_block),
        ci_low=ci_low,
        ci_high=ci_high,
        blocks=n_blocks,
        block_errors=block_errors,
        symbol_errors=symbol_errors,
        bit_errors=bit_errors,
        bits=n_blocks * bits_per_block,
    )
