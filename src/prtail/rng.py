"""Reproducible random-number streams.

All randomness in the package derives from a single nonnegative master
seed. Independent streams are split off with one documented rule:

    stream(seed, *key) == np.random.default_rng(np.random.SeedSequence([seed, *key]))

where ``key`` is a tuple of small nonnegative integers identifying the
consumer: one of the KEY_* values below, and extra indices such as a
generation number. Distinct keys give statistically independent PCG64
streams and the same (seed, key) always reproduces the same stream.

Two helpers cover the cases where a Generator cannot be threaded
through directly: ``derive`` re-keys to a fresh 64-bit master seed for
an operation that itself splits further, and ``kernel_seed`` produces a
32-bit seed for Mersenne-Twister-based kernels.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError

# stream keys, one per consumer, each the first element of its keys
KEY_T = 1           # rvmodel: the T draws of InDegreeModel.sample
KEY_MIX = 2         # rvmodel: the Poisson counts over those T draws
KEY_PICK = 3        # fixedpoint: the pool members a generation picks
KEY_GENERATION = 4  # fixedpoint: each generation's seed, with its number
KEY_GROWTH = 5      # growingnet: the growth kernel's seed


def check_seed(seed: int) -> int:
    """Validate a master seed (nonnegative integer) and return it."""
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise ParameterError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise ParameterError(f"seed must be nonnegative, got {seed}")
    return int(seed)


def stream(seed: int, *key: int) -> np.random.Generator:
    """Return the PCG64 stream for (seed, key) per the splitting rule."""
    return np.random.default_rng(np.random.SeedSequence([check_seed(seed), *key]))


def derive(seed: int, *key: int) -> int:
    """Derive a fresh 64-bit master seed for a sub-operation."""
    state = np.random.SeedSequence([check_seed(seed), *key]).generate_state(1, np.uint64)
    return int(state[0])


def kernel_seed(seed: int, *key: int) -> int:
    """Derive a 32-bit seed for np.random.seed-style kernel RNGs."""
    state = np.random.SeedSequence([check_seed(seed), *key]).generate_state(1, np.uint32)
    return int(state[0])
