"""Deterministic seeding: SplitMix64 mixing plus counter-based Philox streams.

Every random quantity in this package is a pure function of an explicit 64-bit
seed.  Seeds are derived with the SplitMix64 finalizer so that per-trial and
per-purpose streams are independent and order-insensitive; the actual variate
generation uses numpy's Philox counter-based bit generator.  The algorithm
identifier below is echoed in experiment output metadata.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
# SplitMix64 finalizer multipliers
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

#: Identifier recorded in experiment metadata.  Streams are bit-identical for a
#: given seed within this package; across reimplementations only statistical
#: agreement is promised.
RNG_ALGORITHM = "philox4x64+splitmix64-derive"


def mix64(z: int) -> int:
    """SplitMix64 finalizer: a bijective 64-bit mixing function."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return (z ^ (z >> 31)) & MASK64


def mix64_array(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """``mix64`` elementwise over a ``uint64`` array, in place: ``z`` holds the
    result and is returned (products wrap mod 2^64).  ``scratch``, a ``uint64``
    array of z's shape, holds the shifted copies.  The one caller is
    ``ducompm._hash_hits``, which passes its reused block buffers."""
    for shift, mul in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, np.uint64(shift), out=scratch)
        z ^= scratch
        z *= np.uint64(mul)
    np.right_shift(z, np.uint64(31), out=scratch)
    z ^= scratch
    return z


def split_seed(seed: int, index: int) -> int:
    """Derive the ``index``-th child seed of ``seed``.

    Defined as ``mix64(seed + (index + 1) * GOLDEN)`` over 64-bit integers,
    i.e. the SplitMix64 output stream starting at ``seed``.
    """
    return mix64((seed + (index + 1) * GOLDEN) & MASK64)


def generator(seed: int) -> np.random.Generator:
    """Counter-based generator (Philox4x64) keyed by ``seed``."""
    return np.random.Generator(np.random.Philox(key=seed & MASK64))
