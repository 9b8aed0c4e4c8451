"""Block-error-rate measurement over an SNR sweep.

In eval mode the transmitter is a fixed per-symbol map up to the per-block
power norm, so each call first builds the system's (M, latent_dim) codebook
of pre-normalization latents and every chunk encodes by a gather from it.
Decisions are the argmax of the receiver's logits; the softmax is skipped.
The codebook lives for one call only. The reference path (``transmit`` and
``receive``) trains the system and is the tests' oracle for this one.

Work is chunked; every chunk derives its own message and channel streams from
(seed, point index, chunk index), so results are identical no matter how the
chunks are scheduled or how many worker threads run them. The thread cap comes
from the AEVB_COMM_THREADS environment variable when set.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channels import ChannelModel
from .curves import BlerCurve, BlerPoint, wilson_interval
from .errors import ConfigError, DomainError
from .seeding import derive_seed
from .tensor import no_grad

THREADS_ENV_VAR = "AEVB_COMM_THREADS"

_MESSAGE_STREAM = 0
_CHANNEL_STREAM = 1


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
    """Worker threads to use: explicit request, else env cap, else CPU count."""
    if requested is not None:
        if requested < 1:
            raise DomainError(f"workers must be >= 1, got {requested}")
        return requested
    env = os.environ.get(THREADS_ENV_VAR)
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise ConfigError(f"{THREADS_ENV_VAR} must be an integer, got {env!r}") from None
        if value < 1:
            raise ConfigError(f"{THREADS_ENV_VAR} must be >= 1, got {value}")
        return value
    return os.cpu_count() or 1


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
        decided = np.argmax(system.logits(received).data, axis=2)
    wrong = decided != symbols
    return int(wrong.any(axis=1).sum()), int(wrong.sum())


def _point_counts(system, codebook, ebno_db: float, length: int, n_blocks: int, seed: int,
                  point_idx: int, chunk_blocks: int, executor) -> tuple[int, int]:
    chunks = []
    start = 0
    idx = 0
    while start < n_blocks:
        size = min(chunk_blocks, n_blocks - start)
        chunks.append((idx, size))
        start += size
        idx += 1
    futures = [
        executor.submit(_count_chunk, system, codebook, ebno_db, length, size, seed,
                        point_idx, ci)
        for ci, size in chunks
    ]
    block_errors = 0
    symbol_errors = 0
    for fut in futures:  # integer sums: order never matters
        be, se = fut.result()
        block_errors += be
        symbol_errors += se
    return block_errors, symbol_errors


def default_label(system) -> str:
    cfg = system.config
    return f"vae_k{cfg.k}n{cfg.n}m{cfg.latent_multiplier}_{cfg.channel_kind}"


def evaluate_bler(system, ebno_points, blocks_per_point: int, seed: int, *,
                  block_length: int | None = None, chunk_blocks: int = 256,
                  label: str | None = None, workers: int | None = None) -> BlerCurve:
    """Measure BLER/SER at each Eb/N0 point with the system's own channel kind.

    The system must be in eval mode; measurement through batch statistics or
    sampled latents would not reflect deployment behavior. chunk_blocks is
    part of the experiment definition: each chunk's random streams derive
    from (seed, point, chunk index), so counts are identical for any worker
    count or scheduling order, but changing chunk_blocks redraws the data.
    """
    points = [float(p) for p in ebno_points]
    if not points:
        raise DomainError("ebno_points must not be empty")
    if any(b <= a for a, b in zip(points, points[1:])):
        raise DomainError(f"ebno_points must be strictly increasing, got {points}")
    if blocks_per_point < 1:
        raise DomainError(f"blocks_per_point must be >= 1, got {blocks_per_point}")
    if chunk_blocks < 1:
        raise DomainError(f"chunk_blocks must be >= 1, got {chunk_blocks}")
    if system.training:
        raise ConfigError("evaluate_bler requires eval mode; call eval_mode() first")

    length = system.config.block_length if block_length is None else block_length
    if length < 1:
        raise DomainError(f"block_length must be >= 1, got {length}")
    name = default_label(system) if label is None else label
    codebook = system.codebook(chunk_blocks)

    curve_points = []
    with ThreadPoolExecutor(max_workers=resolve_worker_count(workers)) as executor:
        for p_idx, ebno in enumerate(points):
            block_errors, symbol_errors = _point_counts(
                system, codebook, ebno, length, blocks_per_point, seed, p_idx, chunk_blocks,
                executor)
            lo, hi = wilson_interval(block_errors, blocks_per_point)
            curve_points.append(BlerPoint(
                ebno_db=ebno,
                bler=block_errors / blocks_per_point,
                ser=symbol_errors / (blocks_per_point * length),
                ci_low=lo,
                ci_high=hi,
                blocks=blocks_per_point,
                seed=seed,
                system_label=name,
            ))
    return BlerCurve(points=curve_points)


def block_length_transfer(system, lengths, ebno_db: float, blocks_per_length: int,
                          seed: int, *, chunk_blocks: int = 256, label: str | None = None,
                          workers: int | None = None) -> list[TransferRecord]:
    """Evaluate one trained system at several block lengths without retraining."""
    sizes = [int(n) for n in lengths]
    if not sizes:
        raise DomainError("lengths must not be empty")
    if any(n < 1 for n in sizes):
        raise DomainError(f"block lengths must be >= 1, got {sizes}")
    if blocks_per_length < 1:
        raise DomainError(f"blocks_per_length must be >= 1, got {blocks_per_length}")
    if chunk_blocks < 1:
        raise DomainError(f"chunk_blocks must be >= 1, got {chunk_blocks}")
    if system.training:
        raise ConfigError("block_length_transfer requires eval mode; call eval_mode() first")

    name = default_label(system) if label is None else label
    codebook = system.codebook(chunk_blocks)
    records = []
    with ThreadPoolExecutor(max_workers=resolve_worker_count(workers)) as executor:
        for l_idx, length in enumerate(sizes):
            block_errors, symbol_errors = _point_counts(
                system, codebook, float(ebno_db), length, blocks_per_length, seed, l_idx,
                chunk_blocks, executor)
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
                system_label=name,
            ))
    return records


def transfer_to_csv(records: list[TransferRecord], path: str) -> None:
    import csv

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([
            "block_length", "ser", "ser_ci_low", "ser_ci_high",
            "bler", "bler_ci_low", "bler_ci_high", "blocks", "seed", "system_label",
        ])
        for r in records:
            writer.writerow([
                r.block_length, repr(r.ser), repr(r.ser_ci_low), repr(r.ser_ci_high),
                repr(r.bler), repr(r.bler_ci_low), repr(r.bler_ci_high),
                r.blocks, r.seed, r.system_label,
            ])


def transfer_to_json(records: list[TransferRecord], path: str) -> None:
    import dataclasses
    import json

    with open(path, "w", encoding="utf-8") as fh:
        json.dump([dataclasses.asdict(r) for r in records], fh, indent=1)
        fh.write("\n")
