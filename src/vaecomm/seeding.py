"""Deterministic seed derivation for independent random streams."""

from __future__ import annotations

from operator import index

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(z: int) -> int:
    z = (z + _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def derive_seed(base: int, *parts: int) -> int:
    """Fold integer labels into a base seed, one xor-mix step per label.

    Streams derived from the same base with different labels are independent
    for practical purposes, and the derivation does not depend on how work is
    later distributed across threads. A numpy integer counts as its Python int.
    """
    s = index(base) & _MASK
    for p in parts:
        s = _splitmix64(s ^ (index(p) & _MASK))
    return s
