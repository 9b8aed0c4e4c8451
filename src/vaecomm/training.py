"""Minibatch training loop with per-epoch validation.

Determinism contract: given (config.seed, dataset, hyperparameters) the whole
trajectory is reproducible bit for bit on one thread. Epoch shuffling, channel
noise, and latent sampling each own an independent derived stream.
"""

from __future__ import annotations

import copy
import csv
import json
import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .channels import ChannelModel
from .data import Dataset, one_hot
from .errors import DomainError, TrainingDivergedError
from .layers import GaussianSampling
from .model import CommSystem
from .optim import Adam
from .seeding import derive_seed
from .tensor import Tensor, no_grad

log = logging.getLogger(__name__)

_CHANNEL_STREAM = 2
_SHUFFLE_STREAM = 3
_VAL_STREAM = 4


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

    # wall_time stays out of both formats so reruns are byte-identical
    def to_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "train_loss", "val_loss", "kl", "recon"])
            for r in self.records:
                writer.writerow([
                    r.epoch,
                    repr(r.train_loss),
                    repr(r.validation_loss),
                    repr(r.kl_term),
                    repr(r.reconstruction_term),
                ])

    def to_json(self, path: str) -> None:
        rows = [
            {
                "epoch": r.epoch,
                "train_loss": r.train_loss,
                "val_loss": r.validation_loss,
                "kl": r.kl_term,
                "recon": r.reconstruction_term,
            }
            for r in self.records
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=1)
            fh.write("\n")


def clip_global_norm(params, max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most max_norm."""
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad = p.grad * scale
    return norm


def train(system: CommSystem, dataset: Dataset, *, epochs: int, batch_size: int = 64,
          lr: float = 0.01, train_ebno_db: float = 6.0, clip_norm: float = 5.0,
          validation_fraction: float = 0.1) -> TrainingLog:
    """Train in place and return the per-epoch log.

    The last validation_fraction of the training rows is held out; its loss
    is computed in eval mode with a fixed noise draw per epoch, so the curve
    reflects the weights and not the validation channel. The system is left
    in eval mode when training ends (including for epochs=0).
    """
    if epochs < 0:
        raise DomainError(f"epochs must be >= 0, got {epochs}")
    if batch_size < 2:
        raise DomainError(f"batch_size must be >= 2, got {batch_size}")
    if not 0.0 <= validation_fraction < 1.0:
        raise DomainError(f"validation_fraction must be in [0, 1), got {validation_fraction}")

    logbook = TrainingLog()
    if epochs == 0:
        system.eval_mode()
        return logbook

    cfg = system.config
    rows = dataset.train
    if rows.shape[0] < 4:
        raise DomainError(f"need at least 4 training rows, got {rows.shape[0]}")
    n_val = max(1, int(rows.shape[0] * validation_fraction)) if validation_fraction > 0 else 0
    train_rows = rows[: rows.shape[0] - n_val]
    val_rows = rows[rows.shape[0] - n_val:]

    channel = ChannelModel(cfg.channel_kind, train_ebno_db, cfg.code_rate,
                           rng_seed=derive_seed(cfg.seed, _CHANNEL_STREAM))
    shuffle_rng = np.random.default_rng(derive_seed(cfg.seed, _SHUFFLE_STREAM))
    optimizer = Adam(system.parameters(), lr=lr)

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
            x = one_hot(train_rows[idx], cfg.M)
            states = [g.bit_generator.state for g in _generators(system, channel)]
            result = system.end_to_end(x, channel)
            value = result.breakdown.total
            if not np.isfinite(value):
                layer = _first_non_finite_layer(system, x, channel, states)
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, batch {start // batch_size}; "
                    f"first non-finite output in layer '{layer}'"
                )
            optimizer.zero_grad()
            result.loss.backward()
            norm = clip_global_norm(system.parameters(), clip_norm)
            batches += 1
            clipped += norm > clip_norm
            max_norm = max(max_norm, norm)
            optimizer.step()
            loss_sum += value * idx.size
            kl_sum += result.breakdown.kl_term * idx.size
            recon_sum += result.breakdown.reconstruction_term * idx.size
            seen += idx.size
        log.info("epoch %d: %d of %d batches clipped, max norm %.3f",
                 epoch, clipped, batches, max_norm)

        val_loss = _validation_loss(system, val_rows, cfg, train_ebno_db, batch_size)
        logbook.records.append(EpochRecord(
            epoch=epoch,
            train_loss=loss_sum / seen,
            validation_loss=val_loss,
            kl_term=kl_sum / seen,
            reconstruction_term=recon_sum / seen,
            wall_time=time.perf_counter() - t0,
        ))

    system.eval_mode()
    return logbook


def _validation_loss(system: CommSystem, val_rows: np.ndarray, cfg, ebno_db: float,
                     batch_size: int) -> float:
    if val_rows.shape[0] == 0:
        return float("nan")
    system.eval_mode()
    # recreated every epoch with the same derived seed: identical noise draws
    channel = ChannelModel(cfg.channel_kind, ebno_db, cfg.code_rate,
                           rng_seed=derive_seed(cfg.seed, _VAL_STREAM))
    total = 0.0
    with no_grad():
        for start in range(0, val_rows.shape[0], batch_size):
            chunk = val_rows[start:start + batch_size]
            result = system.end_to_end(one_hot(chunk, cfg.M), channel)
            total += result.breakdown.total * chunk.shape[0]
    return total / val_rows.shape[0]


def _generators(system: CommSystem, channel: ChannelModel) -> list[np.random.Generator]:
    """Every stream a training forward draws from: channel noise, then latent sampling."""
    return [channel._rng] + [layer._rng for _, layer in system.layers_of(GaussianSampling)]


def _first_non_finite_layer(system: CommSystem, x: Tensor, channel: ChannelModel,
                            states: list[dict]) -> str:
    """Replay the failing batch on copies whose generators are rewound to the
    states captured before it, so the trace sees the same noise and sampling
    draws, and the live system and streams stay as the failing forward left them."""
    replica, replica_channel = copy.deepcopy((system, channel))
    for gen, state in zip(_generators(replica, replica_channel), states):
        gen.bit_generator.state = state
    with no_grad():
        try:
            for name, arr in replica.trace(x, replica_channel):
                if not np.isfinite(arr).all():
                    return name
        except Exception:  # the diverged forward itself may raise
            pass
    return "parameters"
