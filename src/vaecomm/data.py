"""Message datasets: uniform random symbols and their one-hot encoding."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_integer
from .tensor import SYSTEM_DTYPE, Tensor

MAX_K = 16  # the largest bits per message, for datasets and systems alike


@dataclass(frozen=True)
class Dataset:
    """Train / test split of message blocks, shape (num, L) with entries in
    [0, 2^k). Draws are independent, so repeats across splits are expected."""

    train: np.ndarray
    test: np.ndarray
    k: int
    seed: int


def generate_dataset(k: int, L: int, num_messages: int = 12800, seed: int = 0, *,
                     num_test: int = 64000) -> Dataset:
    """Draw num_messages training blocks and num_test test blocks, seeded."""
    k, L, seed = check_integer("k", k), check_integer("L", L), check_integer("seed", seed, least=0)
    if k > MAX_K:
        raise DomainError(f"k must be in [1, {MAX_K}], got {k}")
    num_messages = check_integer("num_messages", num_messages)
    num_test = check_integer("num_test", num_test, least=0)
    rng = np.random.default_rng(seed)
    M = 1 << k
    train = rng.integers(0, M, size=(num_messages, L), dtype=np.int64)
    test = rng.integers(0, M, size=(num_test, L), dtype=np.int64)
    return Dataset(train=train, test=test, k=k, seed=seed)


def one_hot(symbols: np.ndarray, M: int) -> Tensor:
    """Integer symbols (batch, L) to float32 one-hot rows (batch, L, M)."""
    symbols = np.asarray(symbols)
    if symbols.ndim != 2:
        raise DomainError(f"expected (batch, L) symbols, got shape {symbols.shape}")
    if symbols.size and (symbols.min() < 0 or symbols.max() >= M):
        raise DomainError(f"symbols outside [0, {M})")
    out = np.zeros(symbols.shape + (M,), dtype=SYSTEM_DTYPE)
    np.put_along_axis(out, symbols[..., None], 1.0, axis=2)
    return Tensor(out)
