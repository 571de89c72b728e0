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
from .rng import KEY_MIX, KEY_T, stream

# the largest mean numpy's Generator.poisson accepts; above it the draw
# raises ValueError("lam value too large")
POISSON_MEAN_MAX = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)
# values of T drawn and mixed at once by InDegreeModel.sample: 0.5 MiB
# per block-sized temporary
_BLOCK = 1 << 16


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

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n draws by CCDF inversion of a uniform in (0, 1]."""
        u = 1.0 - rng.random(n)
        return self.x_scale * u ** (-1.0 / self.alpha)


def tail_spec_for_mean(alpha: float, d: float) -> TailSpec:
    """Pareto TailSpec calibrated so that E T = d: a Pareto law of index
    alpha and scale m has mean m * alpha / (alpha - 1), so its x_scale
    is m = d * (alpha - 1) / alpha. Raises ParameterError unless
    alpha > 1 (a finite mean) and d > 0."""
    if not alpha > 1:
        raise ParameterError(f"alpha must exceed 1 for a finite mean, got {alpha}")
    if not d > 0:
        raise ParameterError(f"mean must be positive, got {d}")
    return TailSpec(alpha=alpha, x_scale=d * (alpha - 1.0) / alpha)


@dataclass(frozen=True)
class InDegreeModel:
    """In-degree N(T): unit-rate Poisson count over a draw of T."""

    tail: TailSpec

    def __post_init__(self):
        # the largest T that TailSpec.sample can return, at u = 2^-53, is
        # the largest mean sample hands to numpy's poisson
        top = self.tail.x_scale * (2.0**-53) ** (-1.0 / self.tail.alpha)
        if not top <= POISSON_MEAN_MAX:
            raise ParameterError(
                f"x_scale={self.tail.x_scale!r} and alpha={self.tail.alpha!r} allow draws "
                f"of T up to {top!r}, above numpy's Poisson limit {POISSON_MEAN_MAX!r}"
            )

    def sample(self, n: int, seed: int, out: np.ndarray | None = None) -> np.ndarray:
        """n counts, deterministic given seed, in out (a new int64
        array when out is None), which is returned. T is drawn on
        stream(seed, KEY_T), where a caller can replay it, and the
        counts on stream(seed, KEY_MIX), both _BLOCK values at a time:
        consecutive draws on one stream give the same values as one
        draw of their total, so the counts are the same integers at
        any block size, and the temporaries are block-sized, not n-sized."""
        if out is None:
            out = np.empty(n, dtype=np.int64)
        elif out.shape != (n,) or out.dtype != np.int64:
            raise ParameterError(f"out must be an int64 array of shape ({n},)")
        t_rng, mix_rng = stream(seed, KEY_T), stream(seed, KEY_MIX)
        for lo in range(0, n, _BLOCK):
            hi = min(lo + _BLOCK, n)
            out[lo:hi] = mix_rng.poisson(self.tail.sample(hi - lo, t_rng))
        return out

