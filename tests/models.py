"""Draws and models that only the tests use.

The in-degree models serve solve_r as its model: any object with
sample(n, seed, out=None) -> counts does, where out, when given, is an
int64 array of n that receives the counts and is returned. sample_t
replays the T draws under an InDegreeModel's counts, and
exponential_lst is the simplest transform oracle for theory.solve_lst.
"""

import numpy as np

from prtail.errors import ParameterError
from prtail.rng import KEY_MIX, KEY_T, check_seed, stream
from prtail.rvmodel import TailSpec


class PoissonInDegree:
    """Degenerate-T in-degree: N ~ Poisson(rate) with fixed rate, on
    the stream InDegreeModel mixes with (KEY_MIX)."""

    def __init__(self, rate):
        if not rate >= 0:
            raise ParameterError(f"rate must be nonnegative, got {rate}")
        self.rate = rate

    def sample(self, n, seed, out=None):
        return _into(out, stream(seed, KEY_MIX).poisson(self.rate, n))


class ConstantInDegree:
    """Deterministic in-degree: N identically equal to count."""

    def __init__(self, count):
        if count < 0:
            raise ParameterError(f"count must be nonnegative, got {count}")
        self.count = count

    def sample(self, n, seed, out=None):
        check_seed(seed)
        return _into(out, np.full(n, self.count, dtype=np.int64))


def _into(out, counts):
    """counts, written into out and returned as out when out is given."""
    if out is None:
        return counts
    out[:] = counts
    return out


def sample_t(spec: TailSpec, n: int, seed: int) -> np.ndarray:
    """n i.i.d. draws of T, deterministic given seed: the very T draws
    under InDegreeModel(spec).sample(n, seed), on its stream (KEY_T)."""
    if n < 1:
        raise ParameterError(f"n must be at least 1, got {n}")
    return spec.sample(n, stream(seed, KEY_T))


def exponential_lst(mean: float):
    """LST of an exponential variable with the given mean: 1/(1 + mean*s)."""
    if not mean > 0:
        raise ParameterError(f"mean must be positive, got {mean}")

    def f(s):
        return 1.0 / (1.0 + mean * np.asarray(s, dtype=float))

    return f
