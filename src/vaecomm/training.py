"""Minibatch training loop with per-epoch validation.

Determinism contract: given (config.seed, dataset, hyperparameters) the whole
trajectory is reproducible bit for bit on one thread. Epoch shuffling, channel
noise, and latent sampling each own an independent derived stream.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .channels import ChannelModel
from .data import Dataset
from .errors import DomainError, TrainingDivergedError, check_integer
from .model import CommSystem, EndToEndResult
from .optim import Adam
from .seeding import derive_seed
from .tensor import no_grad

log = logging.getLogger(__name__)

_CHANNEL_STREAM = 2
_SHUFFLE_STREAM = 3
_VAL_STREAM = 4

CLIP_NORM = 5.0  # the bound on the global gradient norm of every step
VALIDATION_FRACTION = 0.1  # the share of training rows held out for validation


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    validation_loss: float
    kl_term: float
    reconstruction_term: float
    wall_time: float  # seconds spent in this epoch; never serialized


@dataclass
class TrainingLog:
    records: list[EpochRecord] = field(default_factory=list)

    def table(self) -> tuple[tuple[str, ...], list[tuple]]:
        """Columns and rows for ``curves.write_table``.

        wall_time stays out so reruns are byte-identical.
        """
        return ("epoch", "train_loss", "val_loss", "kl", "recon"), [
            (r.epoch, r.train_loss, r.validation_loss, r.kl_term, r.reconstruction_term)
            for r in self.records
        ]


def clip_global_norm(params, max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most max_norm.

    Returns the norm before scaling. The sum of squares is taken on the
    gradients divided by the power of two just above their largest
    magnitude, so no square can overflow, and the norm is scaled back by the
    same power; scaling by a power of two is exact, so ordinary gradients
    give the norm of the plain sum of squares bit for bit. A norm that is
    not finite (an inf or NaN entry, or a norm past the float64 range) is
    returned with the gradients left as they are.
    """
    grads = [p.grad for p in params if p.grad is not None]
    peak = float(np.max([np.abs(g).max() for g in grads if g.size], initial=0.0))
    if not np.isfinite(peak):
        return peak
    _, exp2 = math.frexp(peak)
    total = 0.0
    for g in grads:
        scaled = np.ldexp(g, -exp2)
        total += float(np.square(scaled, out=scaled).sum())
    try:
        norm = math.ldexp(math.sqrt(total), exp2)
    except OverflowError:  # the norm is past the float64 range
        return math.inf
    if norm > max_norm:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad = p.grad * scale
    return norm


def train(system: CommSystem, dataset: Dataset, *, epochs: int, batch_size: int = 64,
          lr: float = 0.01, train_ebno_db: float = 6.0) -> TrainingLog:
    """Train in place and return the per-epoch log.

    The last ``VALIDATION_FRACTION`` of the training rows (at least one row)
    is held out; its loss is computed in eval mode with a fixed noise draw
    per epoch, so the curve reflects the weights and not the validation
    channel. Every step clips the global gradient norm to ``CLIP_NORM``. The
    learning rate must be finite and > 0 (``Adam`` raises DomainError). The
    system is left in eval mode when training ends (including for epochs=0).
    """
    epochs = check_integer("epochs", epochs, least=0)
    batch_size = check_integer("batch_size", batch_size, least=2)
    optimizer = Adam(system.parameters(), lr=lr)

    logbook = TrainingLog()
    if epochs == 0:
        system.eval_mode()
        return logbook

    cfg = system.config
    rows = dataset.train
    if rows.shape[0] < 4:
        raise DomainError(f"need at least 4 training rows, got {rows.shape[0]}")
    n_val = max(1, int(rows.shape[0] * VALIDATION_FRACTION))
    train_rows = rows[: rows.shape[0] - n_val]
    val_rows = rows[rows.shape[0] - n_val:]

    channel = ChannelModel(cfg.channel_kind, train_ebno_db, cfg.code_rate,
                           rng_seed=derive_seed(cfg.seed, _CHANNEL_STREAM))
    shuffle_rng = np.random.default_rng(derive_seed(cfg.seed, _SHUFFLE_STREAM))

    for epoch in range(1, epochs + 1):
        t0 = time.perf_counter()
        system.train_mode()
        perm = shuffle_rng.permutation(train_rows.shape[0])
        loss_sum = kl_sum = recon_sum = 0.0
        seen = batches = clipped = 0
        max_norm = 0.0
        for start in range(0, perm.size, batch_size):
            idx = perm[start:start + batch_size]
            if idx.size < 2:
                continue  # batch statistics need at least two items
            result = system.end_to_end(train_rows[idx], channel)
            breakdown = result.breakdown
            if not np.isfinite(breakdown.total):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, batch {start // batch_size}; "
                    f"{_divergence_source(result)}"
                )
            optimizer.zero_grad()
            result.loss.backward()
            del result  # frees this step's graph before the next forward
            norm = clip_global_norm(system.parameters(), CLIP_NORM)
            if not np.isfinite(norm):
                raise TrainingDivergedError(
                    f"non-finite gradient norm ({norm}) at epoch {epoch}, "
                    f"batch {start // batch_size}"
                )
            batches += 1
            clipped += norm > CLIP_NORM
            max_norm = max(max_norm, norm)
            optimizer.step()
            loss_sum += breakdown.total * idx.size
            kl_sum += breakdown.kl_term * idx.size
            recon_sum += breakdown.reconstruction_term * idx.size
            seen += idx.size
        val_loss = _validation_loss(system, val_rows, cfg, train_ebno_db, batch_size)
        record = EpochRecord(
            epoch=epoch,
            train_loss=loss_sum / seen,
            validation_loss=val_loss,
            kl_term=kl_sum / seen,
            reconstruction_term=recon_sum / seen,
            wall_time=time.perf_counter() - t0,
        )
        logbook.records.append(record)
        # symbols/s: training symbols over the whole epoch, validation included
        log.info("epoch %d: %d of %d batches clipped, max norm %.3f, %.2f s, %.0f symbols/s",
                 epoch, clipped, batches, max_norm, record.wall_time,
                 seen * train_rows.shape[1] / record.wall_time)

    system.eval_mode()
    return logbook


def _validation_loss(system: CommSystem, val_rows: np.ndarray, cfg, ebno_db: float,
                     batch_size: int) -> float:
    system.eval_mode()
    # recreated every epoch with the same derived seed: identical noise draws
    channel = ChannelModel(cfg.channel_kind, ebno_db, cfg.code_rate,
                           rng_seed=derive_seed(cfg.seed, _VAL_STREAM))
    total = 0.0
    with no_grad():
        for start in range(0, val_rows.shape[0], batch_size):
            chunk = val_rows[start:start + batch_size]
            result = system.end_to_end(chunk, channel)
            total += result.breakdown.total * chunk.shape[0]
    return total / val_rows.shape[0]


def _divergence_source(result: EndToEndResult) -> str:
    """Where a non-finite loss first appears: the first stage whose output is
    not all finite, or else the first non-finite loss term (the total, when
    only beta * KL + reconstruction overflowed)."""
    for name, out in result.stages:
        if not np.isfinite(out).all():
            return f"first non-finite output in layer '{name}'"
    term = next(t for t in ("kl_term", "reconstruction_term", "total")
                if not np.isfinite(getattr(result.breakdown, t)))
    return f"every stage output is finite; non-finite loss term '{term}'"
