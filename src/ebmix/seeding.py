"""Deterministic RNG derivation.

Every random draw in the package flows from a user seed through
``derive_rng(seed, stream, *key)``.  Stream tags keep independent parts
of a computation (initialization jitter, scenario noise, bootstrap
draws, ...) on non-overlapping streams while staying reproducible.
"""

from __future__ import annotations

import numpy as np

from .errors import check_number

# stream tags; values are arbitrary but frozen for reproducibility
STREAM_INIT = 1
STREAM_NOISE = 2
STREAM_DELTA = 3
STREAM_FDR_DELTA = 4
STREAM_BOOT = 5
STREAM_SEASON = 6

_U64 = 0xFFFF_FFFF_FFFF_FFFF


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Generator seeded by (seed, *key); identical inputs, identical stream.

    Every value must be an integer, a numpy one too (ContractError
    otherwise: a float or a bool is not truncated), and is taken mod 2^64,
    so any integer seed is valid and -1 draws what 2^64 - 1 draws.
    """
    for value in (seed, *key):
        check_number("seed", value)
    entropy = [int(k) & _U64 for k in (seed, *key)]
    return np.random.default_rng(np.random.SeedSequence(entropy))
