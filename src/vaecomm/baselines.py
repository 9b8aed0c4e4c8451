"""Classical Gray-coded modem baselines and their analytic error rates.

Every constellation is square and Gray coded: one PAM ladder gives the level
of each axis label, on both axes, and a point's index is its I label followed
by its Q label, the MSB-first value of its bit group. The ladders, by label:

* QPSK: +1, -1, scaled by 1/sqrt(2), so bits 00 map to (1 + j)/sqrt(2).
* 16QAM: 00 -> -3, 01 -> -1, 10 -> +3, 11 -> +1, scaled by 1/sqrt(10) for
  unit average symbol energy.

The Rayleigh option uses coherent detection with perfect CSI (divide by h),
the textbook reference receiver; the learned system never sees CSI, so the
comparison is deliberately favourable to the baseline.

SciPy is required, but only the analytic curves load it: ``qfunc`` imports
``erfc`` on the first ``analytic_ber`` or ``analytic_ser`` call, which
``vaecomm baseline`` makes on AWGN. ``import vaecomm`` and every other command
run without SciPy, which would be most of a cold import's time.

Hard decisions are nearest-point decisions by complex distance, with ties
taken by the lowest point index. On a square constellation that point is the
nearest I level and the nearest Q level, so each is decided on its own
contiguous float64 array, I or Q, by comparisons with the midpoints between
levels. A symbol with an axis within 2^-24 of a midpoint (so every tie) or
past |64| (so NaN and inf) is decided by the distance search itself. The
guard rests on the ladder's levels lying in [-2, 2], at least 1/4 apart,
which ``Constellation`` requires. On AWGN, ``baseline_bler`` builds no
complex array; complex arithmetic remains only in Rayleigh's equalization.

Each ``baseline_bler`` call logs one INFO line (constellation, Eb/N0, blocks,
block errors, seconds, bits/s) on the ``vaecomm.baselines`` logger.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .channels import CHANNEL_KINDS, noise_variance
from .curves import wilson_interval
from .errors import ConfigError, DomainError, ShapeMismatchError, check_integer
from .evaluation import count_chunks

log = logging.getLogger(__name__)

CONSTELLATION_NAMES = ("qpsk", "16qam", "qam16")  # qam16 is another name for 16qam


def qfunc(x):
    """Gaussian tail probability Q(x) = 0.5 erfc(x / sqrt(2))."""
    from scipy.special import erfc  # SciPy loads here, on the first analytic curve

    return 0.5 * erfc(np.asarray(x, dtype=np.float64) / math.sqrt(2.0))


@dataclass(frozen=True, eq=False)
class Constellation:
    """A square constellation whose axes share one Gray PAM ladder: ``levels[l]``
    is the level of axis label l. ``points``, ``bits_per_symbol``, the mean
    symbol energy and the slicer's tables derive from it. A ladder whose size
    is not a power of two >= 2, or whose levels are not finite, in [-2, 2] and
    1/4 apart, is a ConfigError. Two constellations are equal, and hash alike,
    when their names and ladders are."""

    name: str
    levels: np.ndarray
    points: np.ndarray = field(init=False, repr=False)
    bits_per_symbol: int = field(init=False)
    symbol_energy: float = field(init=False, repr=False)
    _midpoints: np.ndarray = field(init=False, repr=False)
    _by_position: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        levels = np.array(self.levels, dtype=np.float64)  # a copy the caller cannot change
        side = levels.size
        if levels.ndim != 1 or side < 2 or side & (side - 1):
            raise ConfigError(f"{self.name}: a ladder needs a power of two >= 2 levels, "
                              f"got shape {levels.shape}")
        labels = np.argsort(levels)
        ordered = levels[labels]
        if not (np.abs(levels).max() <= 2.0 and np.diff(ordered).min() >= 0.25):  # NaN fails
            raise ConfigError(f"{self.name}: levels must be finite, in [-2, 2] and at least "
                              f"1/4 apart, got {levels.tolist()}")
        points = np.empty(side * side, dtype=np.complex128)
        points.real = np.repeat(levels, side)
        points.imag = np.tile(levels, side)
        derived = {"levels": levels, "points": points,
                   "bits_per_symbol": 2 * (side.bit_length() - 1),
                   "symbol_energy": float(np.mean(np.abs(points) ** 2)),
                   "_midpoints": (ordered[:-1] + ordered[1:]) / 2,
                   "_by_position": (labels[:, None] * side + labels[None, :]).ravel()}
        for name, value in derived.items():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return self.name, tuple(self.levels.tolist())

    def __eq__(self, other):
        if not isinstance(other, Constellation):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @staticmethod
    def qpsk() -> "Constellation":
        return Constellation("qpsk", np.array([1.0, -1.0]) / math.sqrt(2.0))

    @staticmethod
    def qam16() -> "Constellation":
        return Constellation("16qam", np.array([-3.0, -1.0, 3.0, 1.0]) / math.sqrt(10.0))

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
    return c.points[_point_index(c, bits)]


def _point_index(c: Constellation, bits: np.ndarray) -> np.ndarray:
    """MSB-first integer value of each group of bits_per_symbol bits."""
    groups = bits.reshape(-1, c.bits_per_symbol)
    idx = groups[:, 0]
    for j in range(1, c.bits_per_symbol):
        idx = (idx << 1) | groups[:, j]
    return idx


def demodulate_hard(c: Constellation, symbols: np.ndarray) -> np.ndarray:
    """Nearest-point decisions back to bits; ties take the lowest index.

    The I and Q levels are sliced per axis, and entries near a midpoint, past
    the axis limit or not finite go through the complex distance search; see
    the module docstring. The bits equal those of the distance search alone.
    """
    symbols = np.asarray(symbols, dtype=np.complex128).ravel()
    idx = _decide(c, symbols.real, symbols.imag)
    return _index_bits(c, idx).astype(np.int64)


def _index_bits(c: Constellation, idx: np.ndarray) -> np.ndarray:
    """The bits of each index, MSB first, as one flat array."""
    shifts = np.arange(c.bits_per_symbol - 1, -1, -1)
    return ((idx[:, None] >> shifts) & 1).reshape(-1)


def _nearest(c: Constellation, symbols: np.ndarray) -> np.ndarray:
    """Point index at the least complex distance; ties take the lowest index.
    A distance past about 1.3e154 squares to inf; the index is then the
    lowest among the infinite ones, so the overflow is not a fault."""
    with np.errstate(over="ignore"):
        return np.argmin(np.abs(symbols[:, None] - c.points[None, :]) ** 2, axis=1)


# When the slicer may decide. The search rounds each squared distance by a
# few ulps, and with levels in [-2, 2] and both axes in [-64, 64] it is at
# most 20 * 64^2. With levels at least 1/4 apart, when both axes are more
# than m from every midpoint, every other point is at least m/2 farther
# (squared) than the nearest. So once m > _GUARD = 64^2 * 2^-36, about 100
# times the rounding of two such distances, the slicer's point is the search's.
_AXIS_LIMIT = 64.0
_GUARD = 2.0 ** -24


def _decide(c: Constellation, i: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Point index of each symbol i + jq, given as two flat float64 arrays,
    equal to ``_nearest``'s. An axis's level position is the number of
    midpoints below it. A symbol with an axis past _AXIS_LIMIT (NaN and inf
    too) or within _GUARD of a midpoint, so every tie, goes to the search."""
    sure = np.ones(i.size, dtype=bool)
    pos = np.zeros((2, i.size), dtype=np.uint8)  # a ladder has at most 16 levels
    for x, p in zip((i, q), pos):
        mag = np.abs(x)
        sure &= mag <= _AXIS_LIMIT
        for m in c._midpoints:
            p += x > m
            sure &= (mag if m == 0.0 else np.abs(x - m)) > _GUARD
    del mag
    idx = c._by_position[pos[0] * c.levels.size + pos[1]]
    unsure = np.flatnonzero(~sure)
    if unsure.size:
        symbols = np.empty(unsure.size, dtype=np.complex128)
        symbols.real, symbols.imag = i[unsure], q[unsure]
        idx[unsure] = _nearest(c, symbols)
    return idx


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


def _complex(re: np.ndarray, im: np.ndarray, scale: float) -> np.ndarray:
    """(re + 1j * im) * scale, bit for bit, without the complex temporaries."""
    out = np.empty(re.shape, dtype=np.complex128)
    np.multiply(re, scale, out=out.real)
    np.multiply(im, scale, out=out.imag)
    return out


def _received(c: Constellation, sent: np.ndarray, sigma: float, channel: str,
              rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The received points' I and Q parts as two contiguous arrays. On AWGN each
    is its level plus sigma times its draw, bit for bit the complex sum's part;
    Rayleigh's equalization stays complex, since only so does division keep its
    bits. The draws come in order: noise I, noise Q, then Rayleigh's h I and Q."""
    i = rng.standard_normal(sent.size)
    q = rng.standard_normal(sent.size)
    if channel == "rayleigh":
        noise = _complex(i, q, sigma)
        h = _complex(rng.standard_normal(sent.size), rng.standard_normal(sent.size),
                     math.sqrt(0.5))
        rx = (h * c.points[sent] + noise) / h  # perfect-CSI coherent equalization
        return rx.real.copy(), rx.imag.copy()
    i *= sigma
    i += c.levels[sent >> c.bits_per_symbol // 2]
    q *= sigma
    q += c.levels[sent & (c.levels.size - 1)]
    return i, q


def baseline_bler(c: Constellation, ebno_db: float, k: int, L: int, n_blocks: int,
                  seed: int, channel: str = "awgn",
                  chunk_blocks: int = 4096) -> BaselineResult:
    """Monte Carlo error rates for blocks of L symbols of k bits each.

    Each k-bit message symbol spans k / bits_per_symbol constellation uses,
    matching the spectral efficiency of a learned system with R = k/n equal
    to the constellation's bits per channel use. A block errs when any of its
    L message symbols errs; a message symbol errs when any of its k bits does.
    The noise is scaled by the constellation's mean symbol energy, so Eb/N0
    is the energy per bit actually sent over N0 for a ladder of any scale.
    k, L, n_blocks and chunk_blocks must be Python or numpy integers >= 1,
    and seed one >= 0, none of them bool, or DomainError is raised. The chunks
    run in order and draw from one generator seeded with seed.
    """
    k, L = check_integer("k", k), check_integer("L", L)
    n_blocks = check_integer("n_blocks", n_blocks)
    chunk_blocks = check_integer("chunk_blocks", chunk_blocks)
    seed = check_integer("seed", seed, least=0)
    if (k * L) % c.bits_per_symbol != 0:
        raise ConfigError(f"block of {k * L} bits does not fill whole {c.name} symbols")
    if channel not in CHANNEL_KINDS:
        raise ConfigError(f"unknown channel {channel!r}")

    start = time.perf_counter()
    sigma = math.sqrt(noise_variance(ebno_db, float(c.bits_per_symbol)) * c.symbol_energy)
    rng = np.random.default_rng(seed)
    bits_per_block = k * L
    uses_per_message, ragged = divmod(k, c.bits_per_symbol)
    popcount = np.array([bin(i).count("1") for i in range(c.points.size)])

    def count(chunk_idx: int, nb: int) -> tuple[int, int, int]:
        """(block, symbol, bit) errors of the next nb blocks."""
        sent = _point_index(c, rng.integers(0, 2, size=nb * bits_per_block))
        wrong = sent ^ _decide(c, *_received(c, sent, sigma, channel, rng))  # wrong bits
        if ragged:  # a message symbol straddles constellation symbols
            sym_wrong = _index_bits(c, wrong).reshape(nb, L, k).any(axis=2)
        else:
            sym_wrong = wrong[::uses_per_message].copy()
            for j in range(1, uses_per_message):
                sym_wrong |= wrong[j::uses_per_message]
            sym_wrong = sym_wrong.reshape(nb, L) != 0
        return (int(np.count_nonzero(sym_wrong.any(axis=1))), int(np.count_nonzero(sym_wrong)),
                int(popcount[wrong].sum()))

    block_errors, symbol_errors, bit_errors = count_chunks(count, n_blocks, chunk_blocks)
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
