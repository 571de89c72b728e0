"""Monte-Carlo solution of the distributional PageRank equation.

The rank variable R solves, in distribution,

    R = (c/d) * (R_1 + ... + R_N) + (1 - c)

with N the random in-degree and the R_j i.i.d. copies of R. The
population-dynamics scheme keeps a pool approximating the law of R
and rewrites it generation by generation: each output draws its own
N, picks N pool members uniformly with replacement, and applies the
right-hand side. c/d < 1 makes the map contractive, so a few dozen
generations from the exact-mean start R = 1 suffice.

A generation is drawn and summed in chunks of _CHUNK picks, so its
memory beyond the pool-sized arrays is a few MiB however heavy the
in-degree tail: one draw of N can hold tens of millions of picks.
Chunks cut across segments (the picks of one output), yet the result
is the same double, bit for bit, as summing every pick in one pass.
Consecutive integers() calls on one stream give the same indices as
one call for their total. The sum has one rule: every pick is added
into its output's running sum, one at a time, in pick order
(accel.segment_sums, an np.add.at), so a segment cut at a seam goes
on from where the previous chunk left it. Summing a chunk's picks
apart first (a bincount, or np.sum, which also adds pairwise) and
adding that subtotal to the running sum would regroup the additions,
and with them the rounding, wherever a cut falls.

The counts, the pick indices and the seams of a generation depend on
the seed, d and alpha, never on c. So solve_r takes a grid of damping
values that share d and alpha and carries one pool per c through one
set of draws: each chunk's indices are drawn and its seams searched
once, and every pool adds its own gather of them into its own sums by
the in-order rule above. Each c's pool is the same double, bit for
bit, as a solve of that c alone. Each extra c holds one old pool and
one array of sums (its next pool), about 16 bytes per pool member;
the chunk temporaries are shared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import accel
from .errors import ParameterError, StateError
from .rng import check_seed, derive, stream
from .rvmodel import InDegreeModel, tail_spec_for_mean

_TAG_PICK = 3  # pool-index stream; tags 1 and 2 belong to the degree model
_TAG_GEN = 4   # per-generation sub-seed derivation
# picks drawn and summed at once: 0.5 MiB per pick-sized temporary
_CHUNK = 1 << 16

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

    def in_degree_model(self) -> InDegreeModel:
        """Pareto in-degree model calibrated so that E N = E T = d."""
        return InDegreeModel(tail=tail_spec_for_mean(self.alpha, self.d))


@dataclass(frozen=True)
class GenerationDiagnostics:
    """Per-generation audit row; top holds the 10 largest pool values."""

    generation: int
    mean: float
    ks: float
    top: tuple


@dataclass(frozen=True)
class SolveResult:
    """Final pool plus the per-generation audit trail."""

    values: np.ndarray
    diagnostics: tuple
    converged: bool

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


def iterate_generation(pools: list, grid, model, seed: int) -> list:
    """One rewrite of each pool through the right-hand side of the
    equation with its own c of the grid; every next pool has as many
    members as the pools. One draw of the counts and one pick stream
    serve all pools, and the picks are drawn and summed _CHUNK at a
    time (see the module docstring)."""
    size = pools[0].size
    if size == 0:
        raise StateError("cannot iterate from an empty pool")
    counts = np.asarray(model.sample(size, seed), dtype=np.int64)
    ends = np.cumsum(counts)
    total = int(ends[-1])
    rng = stream(seed, _TAG_PICK)
    sums = [np.zeros(size) for _ in pools]
    for lo in range(0, total, _CHUNK):
        hi = min(lo + _CHUNK, total)
        idx = rng.integers(0, size, size=hi - lo)
        # segments first..last hold picks lo..hi-1; a zero-count one
        # between them sums to 0, one at a seam is never touched
        first = int(np.searchsorted(ends, lo, side="right"))
        last = int(np.searchsorted(ends, hi - 1, side="right"))
        part = np.diff(np.minimum(ends[first:last + 1], hi), prepend=lo)
        accel.segment_sums(pools, idx, part, [out[first:last + 1] for out in sums])
    # in place, the same rounding as (c/d) * sums + (1 - c)
    for out, params in zip(sums, grid):
        out *= params.c / params.d
        out += 1.0 - params.c
    return sums


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
    and is rejected. Each buffer is dropped or reused once spent, so
    the peak is the gather of the merged values: 24 bytes per sample.
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
    del values, last
    # reuse the index buffer: membership in a, then its running count
    np.less(order, na, out=order)
    np.cumsum(order, out=order)
    rank_a = order[pos]
    del order
    # b's count, in place of the positions
    pos += 1
    pos -= rank_a
    gap = np.divide(rank_a, na)
    del rank_a
    np.subtract(gap, np.divide(pos, nb), out=gap)
    return float(np.abs(gap, out=gap).max())


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
    grid,
    model,
    pool_size: int = DEFAULT_POOL_SIZE,
    generations: int = DEFAULT_GENERATIONS,
    seed: int = 0,
) -> list:
    """Iterate one pool per ModelParams of the grid to distributional
    convergence; returns one SolveResult per grid entry, in order.

    The grid's entries must share d and alpha, which with the seed fix
    every draw (see the module docstring); model is their in-degree
    model. Each result carries one diagnostics row per generation
    (mean, KS distance to the previous generation, top-10 values so
    heavy-tail resampling stays auditable). A final KS above
    KS_THRESHOLD only clears the converged flag; the final pool is
    still returned. The pools start from R = 1 identically: the exact
    mean, and the exact solution when N = d is deterministic.
    """
    if not grid:
        raise ParameterError("the c grid must hold at least one ModelParams")
    if any((p.d, p.alpha) != (grid[0].d, grid[0].alpha) for p in grid):
        raise ParameterError("every ModelParams of a grid must share d and alpha")
    check_solve_args(pool_size, generations, seed)
    pools = [np.ones(pool_size)] * len(grid)
    diagnostics = [[] for _ in grid]
    for g in range(1, generations + 1):
        nxt = iterate_generation(pools, grid, model, derive(seed, _TAG_GEN, g))
        for k, pool in enumerate(nxt):
            diagnostics[k].append(
                GenerationDiagnostics(
                    generation=g,
                    mean=float(pool.mean()),
                    ks=ks_distance(pool, pools[k]),
                    top=_top_values(pool),
                )
            )
            # the old pool goes once its KS row is taken
            pools[k] = pool
    return [
        SolveResult(values=pool, diagnostics=tuple(rows), converged=rows[-1].ks <= KS_THRESHOLD)
        for pool, rows in zip(pools, diagnostics)
    ]


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
