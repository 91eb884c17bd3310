"""Deterministic RNG derivation.

Every random draw in the package flows from a user seed through
``derive_rng(seed, stream, *key)``.  Stream tags keep independent parts
of a computation (initialization jitter, scenario noise, bootstrap
draws, ...) on non-overlapping streams while staying reproducible.
"""

from __future__ import annotations

import numpy as np

# stream tags; values are arbitrary but frozen for reproducibility
STREAM_INIT = 1
STREAM_NOISE = 2
STREAM_DELTA = 3
STREAM_FDR_DELTA = 4
STREAM_BOOT = 5
STREAM_SEASON = 6

_U64 = np.uint64(0xFFFFFFFFFFFFFFFF)


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Generator seeded by (seed, *key); identical inputs, identical stream."""
    entropy = [int(np.uint64(seed) & _U64)] + [int(np.uint64(k) & _U64) for k in key]
    return np.random.default_rng(np.random.SeedSequence(entropy))
