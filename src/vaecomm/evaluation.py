"""Block-error-rate measurement over an SNR sweep.

In eval mode the transmitter is a fixed per-symbol map up to the per-block
power norm, so each call first builds the system's (M, latent_dim) codebook
of pre-normalization latents, by training's per-symbol table forward, and
every chunk encodes by a gather from it. The codebook depends only on the
system and lives for one call only. The receiver decides on blocks of 512
positions (``CommSystem.decide``) and keeps only the argmax, so a chunk's
memory does not grow with its size. The whole chain (``CommSystem.end_to_end``)
trains the system and is the tests' oracle for this path.

Work is chunked; every chunk derives its own message and channel streams from
(seed, point index, chunk index), so results are identical no matter how the
chunks are scheduled or how many worker threads run them. By default chunks
run one after another on the calling thread. A thread pool runs them when
``workers`` > 1 is passed or the AEVB_COMM_THREADS environment variable asks
for more than one; on a 2-vCPU machine the pool measured slower than the
calling thread.

``evaluate_bler`` (points over Eb/N0) and ``block_length_transfer`` (points
over L) check their own arguments and build their own records; the
measurement itself is one loop over (Eb/N0, L) settings, ``_measure``, where
a setting's position is its point index. So a transfer at one length and a
sweep at one point count the same draws. Each point's chunks are counted by
``count_chunks``, which ``baselines.baseline_bler`` shares, and every size is
checked by ``check_integer``. Each point logs one INFO line
(index, Eb/N0 or L, blocks, block errors, seconds, symbols/s) on the
``vaecomm.evaluation`` logger. The returned curves and records hold no
wall-clock data; ``curves.write_table`` writes them.
"""

from __future__ import annotations

import logging
import os
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .channels import ChannelModel, check_ebno_db
from .curves import BlerCurve, BlerPoint, wilson_interval
from .errors import ConfigError, DomainError, check_integer
from .seeding import derive_seed
from .tensor import no_grad

THREADS_ENV_VAR = "AEVB_COMM_THREADS"

_MESSAGE_STREAM = 0
_CHANNEL_STREAM = 1

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TransferRecord:
    """Error rates for one block length, with Wilson 95% intervals."""

    block_length: int
    ser: float
    ser_ci_low: float
    ser_ci_high: float
    bler: float
    bler_ci_low: float
    bler_ci_high: float
    blocks: int
    seed: int
    system_label: str


def resolve_worker_count(requested: int | None = None) -> int:
    """Worker threads to use: explicit request, else the env var, else 1 (the calling thread)."""
    if requested is not None:
        return check_integer("workers", requested)
    env = os.environ.get(THREADS_ENV_VAR)
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise ConfigError(f"{THREADS_ENV_VAR} must be an integer, got {env!r}") from None
        if value < 1:
            raise ConfigError(f"{THREADS_ENV_VAR} must be >= 1, got {value}")
        return value
    return 1


def _count_chunk(system, codebook, ebno_db: float, length: int, n_blocks: int, seed: int,
                 point_idx: int, chunk_idx: int) -> tuple[int, int]:
    """Return (block_errors, symbol_errors) for one independent chunk."""
    cfg = system.config
    msg_rng = np.random.default_rng(
        derive_seed(seed, point_idx, chunk_idx, _MESSAGE_STREAM))
    channel = ChannelModel(cfg.channel_kind, ebno_db, cfg.code_rate,
                           rng_seed=derive_seed(seed, point_idx, chunk_idx, _CHANNEL_STREAM))
    symbols = msg_rng.integers(0, cfg.M, size=(n_blocks, length), dtype=np.int64)
    with no_grad():
        received = channel.apply(system.encode(codebook, symbols))
    wrong = system.decide(received) != symbols
    return int(wrong.any(axis=1).sum()), int(wrong.sum())


@contextmanager
def _chunk_map(workers: int):
    """A ``map`` for chunk jobs: the builtin on the calling thread for one
    worker, else a thread pool's."""
    if workers == 1:
        yield map
        return
    with ThreadPoolExecutor(max_workers=workers) as executor:
        yield executor.map


def count_chunks(count, n_blocks: int, chunk_blocks: int, chunk_map=map) -> tuple[int, ...]:
    """The sums of count(chunk_idx, size)'s tuples of integer counts over
    n_blocks blocks split into chunks of chunk_blocks, the last one possibly
    short. chunk_map runs the chunks; the builtin map runs them in index order
    on the calling thread, so a count that draws from one generator gets its
    draws in that order."""
    sizes = [min(chunk_blocks, n_blocks - start) for start in range(0, n_blocks, chunk_blocks)]
    # integer sums: the order of the chunks never changes them
    return tuple(map(sum, zip(*chunk_map(count, range(len(sizes)), sizes))))


def _measure(system, caller: str, what: str, settings, blocks: int, seed: int,
             chunk_blocks: int, workers: int | None) -> list[tuple[int, int]]:
    """(block_errors, symbol_errors) at each (Eb/N0, L, text) setting, in order.

    The position of a setting is its point index in the random streams. Each
    point logs one INFO line, "<what> i/n: <text>, ...".
    """
    chunk_blocks = check_integer("chunk_blocks", chunk_blocks)
    if system.training:
        raise ConfigError(f"{caller} requires eval mode; call eval_mode() first")
    codebook = system.codebook()
    counts = []
    with _chunk_map(resolve_worker_count(workers)) as chunk_map:
        for idx, (ebno_db, length, text) in enumerate(settings):
            start = time.perf_counter()
            block_errors, symbol_errors = count_chunks(
                lambda chunk_idx, size: _count_chunk(system, codebook, ebno_db, length, size,
                                                     seed, idx, chunk_idx),
                blocks, chunk_blocks, chunk_map)
            seconds = time.perf_counter() - start
            log.info("%s %d/%d: %s, %d blocks, %d block errors, %.3f s, %.0f symbols/s",
                     what, idx + 1, len(settings), text, blocks, block_errors, seconds,
                     blocks * length / seconds)
            counts.append((block_errors, symbol_errors))
    return counts


def default_label(system) -> str:
    cfg = system.config
    return f"vae_k{cfg.k}n{cfg.n}m{cfg.latent_multiplier}_{cfg.channel_kind}"


def evaluate_bler(system, ebno_points, blocks_per_point: int, seed: int, *,
                  block_length: int | None = None, chunk_blocks: int = 256,
                  workers: int | None = None) -> BlerCurve:
    """Measure BLER/SER at each Eb/N0 point with the system's own channel kind.
    Every point is labelled ``default_label(system)``.

    The system must be in eval mode; measurement through batch statistics or
    sampled latents would not reflect deployment behavior. chunk_blocks is
    part of the experiment definition: each chunk's random streams derive
    from (seed, point, chunk index), so counts are identical for any worker
    count or scheduling order, but changing chunk_blocks redraws the data.
    block_length must be an integer as in ``block_length_transfer``; None
    means the system's own L. blocks_per_point, chunk_blocks and seed are
    checked the same way, seed with no lower bound.
    """
    points = [check_ebno_db(float(p)) for p in ebno_points]
    if not points:
        raise DomainError("ebno_points must not be empty")
    if any(b <= a for a, b in zip(points, points[1:])):
        raise DomainError(f"ebno_points must be strictly increasing, got {points}")
    blocks_per_point = check_integer("blocks_per_point", blocks_per_point)
    seed = check_integer("seed", seed, least=None)
    length = check_integer("each of the block lengths",
                           system.config.block_length if block_length is None else block_length)

    counts = _measure(system, "evaluate_bler", "point",
                      [(ebno, length, f"Eb/N0 {ebno} dB") for ebno in points],
                      blocks_per_point, seed, chunk_blocks, workers)
    curve_points = []
    for ebno, (block_errors, symbol_errors) in zip(points, counts):
        lo, hi = wilson_interval(block_errors, blocks_per_point)
        curve_points.append(BlerPoint(
            ebno_db=ebno,
            bler=block_errors / blocks_per_point,
            ser=symbol_errors / (blocks_per_point * length),
            ci_low=lo,
            ci_high=hi,
            blocks=blocks_per_point,
            block_length=length,
            seed=seed,
            system_label=default_label(system),
        ))
    return BlerCurve(points=curve_points)


def block_length_transfer(system, lengths, ebno_db: float, blocks_per_length: int,
                          seed: int, *, chunk_blocks: int = 256,
                          workers: int | None = None) -> list[TransferRecord]:
    """Evaluate one trained system at several block lengths without retraining.

    Lengths, blocks_per_length and chunk_blocks must be Python or numpy
    integers >= 1, not bool: a float is not truncated. seed must be an
    integer too. Every record is labelled ``default_label(system)``.
    """
    sizes = [check_integer("each of the block lengths", n) for n in lengths]
    if not sizes:
        raise DomainError("lengths must not be empty")
    blocks_per_length = check_integer("blocks_per_length", blocks_per_length)
    seed = check_integer("seed", seed, least=None)
    ebno_db = check_ebno_db(float(ebno_db))

    counts = _measure(system, "block_length_transfer", "length",
                      [(ebno_db, length, f"L={length}") for length in sizes],
                      blocks_per_length, seed, chunk_blocks, workers)
    records = []
    for length, (block_errors, symbol_errors) in zip(sizes, counts):
        symbols = blocks_per_length * length
        b_lo, b_hi = wilson_interval(block_errors, blocks_per_length)
        s_lo, s_hi = wilson_interval(symbol_errors, symbols)
        records.append(TransferRecord(
            block_length=length,
            ser=symbol_errors / symbols,
            ser_ci_low=s_lo,
            ser_ci_high=s_hi,
            bler=block_errors / blocks_per_length,
            bler_ci_low=b_lo,
            bler_ci_high=b_hi,
            blocks=blocks_per_length,
            seed=seed,
            system_label=default_label(system),
        ))
    return records

