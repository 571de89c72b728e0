"""Draws and models that only the tests use.

The in-degree models serve solve_r as its model: any object with
sample(n, seed) -> counts does. sample_t replays the T draws under an
InDegreeModel's counts, and exponential_lst is the simplest transform
oracle for theory.solve_lst.
"""

import numpy as np

from prtail.errors import ParameterError
from prtail.rng import check_seed, stream
from prtail.rvmodel import TailSpec


class PoissonInDegree:
    """Degenerate-T in-degree: N ~ Poisson(rate) with fixed rate, on
    the stream InDegreeModel mixes with (tag 2)."""

    def __init__(self, rate):
        if not rate >= 0:
            raise ParameterError(f"rate must be nonnegative, got {rate}")
        self.rate = rate

    def sample(self, n, seed):
        return stream(seed, 2).poisson(self.rate, n)


class ConstantInDegree:
    """Deterministic in-degree: N identically equal to count."""

    def __init__(self, count):
        if count < 0:
            raise ParameterError(f"count must be nonnegative, got {count}")
        self.count = count

    def sample(self, n, seed):
        check_seed(seed)
        return np.full(n, self.count, dtype=np.int64)


def sample_t(spec: TailSpec, n: int, seed: int) -> np.ndarray:
    """n i.i.d. draws of T, deterministic given seed: the very T draws
    under InDegreeModel(spec).sample(n, seed), on its stream (tag 1)."""
    if n < 1:
        raise ParameterError(f"n must be at least 1, got {n}")
    return spec.sample(n, stream(seed, 1))


def exponential_lst(mean: float):
    """LST of an exponential variable with the given mean: 1/(1 + mean*s)."""
    if not mean > 0:
        raise ParameterError(f"mean must be positive, got {mean}")

    def f(s):
        return 1.0 / (1.0 + mean * np.asarray(s, dtype=float))

    return f
