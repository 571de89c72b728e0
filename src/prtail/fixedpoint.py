"""Monte-Carlo solution of the distributional PageRank equation.

The rank variable R solves, in distribution,

    R = (c/d) * (R_1 + ... + R_N) + (1 - c)

with N the random in-degree and the R_j i.i.d. copies of R. The
population-dynamics scheme keeps a pool approximating the law of R
and rewrites it generation by generation: each output draws its own
N, picks N pool members uniformly with replacement, and applies the
right-hand side. c/d < 1 makes the map contractive, so a few dozen
generations from the exact-mean start R = 1 suffice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import accel
from .errors import ParameterError, StateError
from .rng import check_seed, derive, stream
from .rvmodel import InDegreeModel, tail_spec_for_mean
from .samples import SampleSet

_TAG_PICK = 3  # pool-index stream; tags 1 and 2 belong to the degree model
_TAG_GEN = 4   # per-generation sub-seed derivation

DEFAULT_POOL_SIZE = 10**6
DEFAULT_GENERATIONS = 30
KS_THRESHOLD = 0.005
MIN_POOL_SIZE = 10**3
_TOP_COUNT = 10


@dataclass(frozen=True)
class ModelParams:
    """Damping c, mean out-degree d, and tail index alpha of T."""

    c: float
    d: float
    alpha: float

    def __post_init__(self):
        for name in ("c", "d", "alpha"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value}")
        if not 0 < self.c < 1:
            raise ParameterError(f"c must lie in (0, 1), got {self.c}")
        if not self.d > 1:
            raise ParameterError(f"d must exceed 1, got {self.d}")
        if not self.alpha > 1:
            raise ParameterError(f"alpha must exceed 1, got {self.alpha}")

    def in_degree_model(self, slowly_varying: str = "constant") -> InDegreeModel:
        """In-degree model calibrated so that E N = E T = d."""
        return InDegreeModel(tail=tail_spec_for_mean(self.alpha, self.d, slowly_varying))


@dataclass(frozen=True)
class GenerationPool:
    """Immutable sample pool approximating the law of R at one generation."""

    samples: np.ndarray
    generation: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        # emptiness is a state, not a parameter: iterating from an empty
        # pool raises StateError at the point of use
        if samples.ndim != 1:
            raise ParameterError("pool samples must form a 1-d array")
        if self.generation < 0:
            raise ParameterError(f"generation must be nonnegative, got {self.generation}")
        object.__setattr__(self, "samples", samples)

    @property
    def size(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class GenerationDiagnostics:
    """Per-generation audit row; top holds the 10 largest pool values."""

    generation: int
    mean: float
    ks: float
    top: tuple

    @property
    def max(self) -> float:
        return self.top[0]


@dataclass(frozen=True)
class SolveResult:
    """Final pool plus the per-generation audit trail."""

    samples: SampleSet
    diagnostics: tuple
    converged: bool

    @property
    def values(self) -> np.ndarray:
        return self.samples.values

    @property
    def ks_final(self) -> float:
        return self.diagnostics[-1].ks


def final_generation_seed(seed: int, generations: int) -> int:
    """Seed of the degree stream used by the last generation of solve_r.

    Drawing a reference N(T) sample with this seed reproduces the
    exact in-degree draws behind the final pool, so R-vs-N comparisons
    (tail offsets, Hill-fit differences, dominance checks) cancel the
    shared extreme-draw noise instead of stacking two independent
    heavy-tail fluctuations.
    """
    if generations < 1:
        raise ParameterError(f"generations must be at least 1, got {generations}")
    return derive(seed, _TAG_GEN, generations)


def initial_pool(pool_size: int) -> GenerationPool:
    """Generation-0 pool: R = 1 identically (the exact mean, and the
    exact solution when N = d is deterministic)."""
    if pool_size < 1:
        raise ParameterError(f"pool_size must be positive, got {pool_size}")
    return GenerationPool(samples=np.ones(pool_size), generation=0)


def iterate_generation(
    pool: GenerationPool,
    params: ModelParams,
    model,
    pool_size: int,
    seed: int,
) -> GenerationPool:
    """One rewrite of the pool through the right-hand side of the equation."""
    if pool.size == 0:
        raise StateError("cannot iterate from an empty pool")
    if pool_size < 1:
        raise ParameterError(f"pool_size must be positive, got {pool_size}")
    counts = np.asarray(model.sample(pool_size, seed), dtype=np.int64)
    total = int(counts.sum())
    idx = stream(seed, _TAG_PICK).integers(0, pool.size, size=total)
    sums = accel.segment_sums(pool.samples, idx, counts)
    samples = (params.c / params.d) * sums + (1.0 - params.c)
    return GenerationPool(samples=samples, generation=pool.generation + 1)


def ks_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Exact two-sample Kolmogorov-Smirnov statistic.

    Both samples are copied into one buffer and each half is sorted,
    then the halves are merged by a stable argsort (its run detection
    makes the merge linear). A
    running count of a-members along the merged order gives, at each
    position, the integer number of a-values at or below it, and the
    position plus one minus that count is the number of b-values. Only
    the last position of each run of equal values is kept, so the
    pairs are exactly the right-continuous CDF counts at every distinct
    sample value. The counts stay integers until each is divided by
    its own sample size, which is the same arithmetic as evaluating
    both empirical CDFs on the pooled grid: the statistic, and with it
    diagnostics.csv, is identical bit for bit. NaN has no place in the
    order (it does not equal itself, so its ties cannot be grouped)
    and is rejected.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or b.ndim != 1 or a.size == 0 or b.size == 0:
        raise ParameterError("KS distance requires two nonempty 1-d samples")
    na, nb = a.size, b.size
    values = np.concatenate([a, b])
    values[:na].sort()
    values[na:].sort()
    # the sort puts NaN last, so each sample's last value tells
    if np.isnan(values[na - 1]) or np.isnan(values[-1]):
        raise ParameterError("KS distance is undefined for NaN samples")
    order = np.argsort(values, kind="stable")
    values = values[order]
    last = np.empty(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=last[:-1])
    last[-1] = True
    pos = np.flatnonzero(last)
    # reuse the index buffer: membership in a, then its running count
    rank = np.less(order, na, out=order)
    np.cumsum(rank, out=rank)
    rank_a = rank[pos]
    rank_b = pos + 1 - rank_a
    return float(np.abs(rank_a / na - rank_b / nb).max())


def _top_values(samples: np.ndarray, k: int = _TOP_COUNT) -> tuple:
    k = min(k, samples.size)
    top = np.sort(np.partition(samples, samples.size - k)[samples.size - k:])[::-1]
    return tuple(float(v) for v in top)


def check_solve_args(pool_size: int, generations: int, seed: int) -> None:
    """Raise ParameterError unless solve_r accepts this pool size,
    generation count and seed."""
    check_seed(seed)
    if generations < 1:
        raise ParameterError(f"generations must be at least 1, got {generations}")
    if pool_size < MIN_POOL_SIZE:
        raise ParameterError(f"pool_size must be at least {MIN_POOL_SIZE}, got {pool_size}")


def solve_r(
    params: ModelParams,
    model,
    pool_size: int = DEFAULT_POOL_SIZE,
    generations: int = DEFAULT_GENERATIONS,
    seed: int = 0,
    ks_threshold: float = KS_THRESHOLD,
) -> SolveResult:
    """Iterate the pool to distributional convergence.

    The result carries one diagnostics row per generation (mean, KS
    distance to the previous generation, top-10 values so heavy-tail
    resampling stays auditable). A final KS above ks_threshold only
    clears the converged flag; the samples are still returned.
    """
    check_solve_args(pool_size, generations, seed)
    pool = initial_pool(pool_size)
    diagnostics = []
    for g in range(1, generations + 1):
        nxt = iterate_generation(pool, params, model, pool_size, derive(seed, _TAG_GEN, g))
        diagnostics.append(
            GenerationDiagnostics(
                generation=g,
                mean=float(nxt.samples.mean()),
                ks=ks_distance(nxt.samples, pool.samples),
                top=_top_values(nxt.samples),
            )
        )
        pool = nxt
    converged = diagnostics[-1].ks <= ks_threshold
    samples = SampleSet(
        values=pool.samples,
        source="r",
        seed=check_seed(seed),
        meta={
            "c": params.c,
            "d": params.d,
            "alpha": params.alpha,
            "pool_size": pool_size,
            "generations": generations,
            "ks_final": diagnostics[-1].ks,
            "converged": converged,
        },
    )
    return SolveResult(samples=samples, diagnostics=tuple(diagnostics), converged=converged)


def lower_bound_samples(model, params: ModelParams, n: int, seed: int) -> SampleSet:
    """Draws of (1-c)((c/d)N + 1), which R dominates stochastically."""
    if n < 1:
        raise ParameterError(f"n must be at least 1, got {n}")
    counts = np.asarray(model.sample(n, seed), dtype=float)
    values = (1.0 - params.c) * ((params.c / params.d) * counts + 1.0)
    return SampleSet(
        values=values,
        source="r-lower-bound",
        seed=check_seed(seed),
        meta={"c": params.c, "d": params.d},
    )


def save_diagnostics(diagnostics, path) -> None:
    """CSV audit trail: generation, mean, KS, then the top-10 values."""
    top_headers = ["max"] + [f"top{i:02d}" for i in range(2, _TOP_COUNT + 1)]
    with open(path, "w") as fh:
        fh.write("generation,mean,ks," + ",".join(top_headers) + "\n")
        for row in diagnostics:
            top = list(row.top) + [math.nan] * (_TOP_COUNT - len(row.top))
            cells = [str(row.generation), repr(row.mean), repr(row.ks)]
            cells += [repr(float(v)) for v in top]
            fh.write(",".join(cells) + "\n")
