"""Heavy-tailed interval T and the Poisson-mixed in-degree N(T).

The in-degree of a page is modeled as N(T), the number of points a
unit-rate Poisson process drops on an interval of random length T,
where T is regularly varying with CCDF index alpha > 1. Mixing over T
preserves both the mean (E N(T) = E T) and the tail index, which is
what makes the model's in-degree calibration work.

T is Pareto: CCDF (x/m)^(-alpha) for x >= m, which realizes the
asymptotic tail exactly at all scales.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .rng import stream

# stream tags under a caller's master seed: InDegreeModel.sample draws
# T on _TAG_T and the Poisson counts over it on _TAG_MIX, so a caller
# can replay the T draws under a seed's counts from stream(seed, _TAG_T)
_TAG_T = 1
_TAG_MIX = 2
# the largest mean numpy's Generator.poisson accepts; above it the draw
# raises ValueError("lam value too large")
POISSON_MEAN_MAX = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)


def pareto_scale_for_mean(alpha: float, d: float) -> float:
    """Scale m such that Pareto(alpha, m) has mean d: m = d(alpha-1)/alpha."""
    if not alpha > 1:
        raise ParameterError(f"alpha must exceed 1 for a finite mean, got {alpha}")
    if not d > 0:
        raise ParameterError(f"mean must be positive, got {d}")
    return d * (alpha - 1.0) / alpha


@dataclass(frozen=True)
class TailSpec:
    """Pareto law for T: CCDF (x/x_scale)^(-alpha) for x >= x_scale."""

    alpha: float
    x_scale: float

    def __post_init__(self):
        if not self.alpha > 1:
            raise ParameterError(f"alpha must exceed 1, got {self.alpha}")
        if not self.x_scale > 0:
            raise ParameterError(f"x_scale must be positive, got {self.x_scale}")

    def mean(self) -> float:
        return self.x_scale * self.alpha / (self.alpha - 1.0)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n draws by CCDF inversion of a uniform in (0, 1]."""
        u = 1.0 - rng.random(n)
        return self.x_scale * u ** (-1.0 / self.alpha)


def tail_spec_for_mean(alpha: float, d: float) -> TailSpec:
    """Pareto TailSpec calibrated so that E T = d."""
    return TailSpec(alpha=alpha, x_scale=pareto_scale_for_mean(alpha, d))


@dataclass(frozen=True)
class InDegreeModel:
    """In-degree N(T): unit-rate Poisson count over a draw of T."""

    tail: TailSpec

    def sample(self, n: int, seed: int) -> np.ndarray:
        t = self.tail.sample(n, stream(seed, _TAG_T))
        return stream(seed, _TAG_MIX).poisson(t)

