"""Seed derivation and per-trial generator construction.

All randomness flows through numpy's Philox bit generator, a counter-based
generator keyed directly with a 64-bit integer.  Seeds for sub-tasks (one
Monte Carlo trial, one row of a sweep) are derived from the master seed with
a SplitMix64-style fold:

    derive_seed(master, w1, w2, ...) folds each word into the running hash
    with h = splitmix64(h XOR (w * GAMMA)).

A negative master seed is refused, not folded to 64 bits; every estimator
passes its master seed through derive_seed before its first trial.

Because every trial owns an independently keyed generator, results do not
depend on execution order or thread count.  The fold and the choice of
Philox are frozen; changing either changes every sampled network.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _splitmix64(z: int) -> int:
    z = (z + _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master: int, *words: int) -> int:
    """A 64-bit seed for the sub-task identified by words under master."""
    if master < 0:
        raise ValueError(f"seed must be a non-negative integer, got {master}")
    h = _splitmix64(master & _MASK64)
    for w in words:
        h = _splitmix64(h ^ ((w * _GAMMA) & _MASK64))
    return h


def generator(seed: int) -> np.random.Generator:
    """The Philox generator keyed by a 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=seed & _MASK64))
