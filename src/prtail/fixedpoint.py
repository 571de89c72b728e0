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
(accel.segment_sums, a compiled loop that starts each segment from
the value already in its output), so a segment cut at a seam goes on
from where the previous chunk left it. Summing a chunk's picks
apart first (a bincount, or np.sum, which also adds pairwise) and
adding that subtotal to the running sum would regroup the additions,
and with them the rounding, wherever a cut falls.

The counts, the pick indices and the seams of a generation depend on
the seed, d and alpha, never on c. So solve_r takes a grid of damping
values that share d and alpha and carries one pool per c through one
set of draws: each chunk's indices are drawn and its seams searched
once, and every pool adds the values they pick into its own sums by
the in-order rule above. Each c's pool is the same double, bit for
bit, as a solve of that c alone.

solve_r overlaps its work on one helper thread, with nothing to set:
a one-worker ThreadPoolExecutor that each solve_r call makes and shuts
down. The main thread does the sums of each generation: the pick
draws, the seam search and segment_sums, through iterate_generation.
The helper does what the sums do not wait for: while generation g is
summed, it takes the diagnostics rows of generation g-1, then draws
the counts of generation g+1 (model.sample and their running ends).
A solve without history (see solve_r) takes only the rows of the
last generation, after its sums; the helper then only draws.
numpy and the compiled sum loop let go of the GIL in the sums, the
sorts, the searches and the draws, so on two CPUs the threads compute
at once; on one they take turns. Before summing generation g the main
thread waits on the futures of the rows of g-2 and the counts of g,
so a call that raised raises again there. On any exception the
helper's queued calls are cancelled, a running one finishes, and the
thread is joined before solve_r returns or raises.

Threading changes no byte. Each random stream has one consumer in its
original order: the degree streams (rng.KEY_T and KEY_MIX) the
helper, the pick stream the main thread. The sums are the same kernel
calls in the same order. A diagnostics row reads only pools that are
finished: the mean is taken on the pool in its own order, the KS
distance is integer counts, each divided by its own sample size (see
ks_distance), and the top 10 are read off the sorted pool. The rows
of generation g-1 compare its pools with those of g-2, which nothing
reads picks from any more, so the helper sorts those in place and
copies each pool of g-1 into one sort buffer.

The KS distance bounds before it searches. It counts both samples at
or below every _KS_STRIDE-th value of one of them, where the gap is
exact; between two such points the counts only grow, so the gap
there is at most the larger count of one sample over the smaller of
the other, and rounding keeps that order. Only the stretches whose
bound beats the largest gap found are searched value by value, in a
solve about a tenth of the values or less: the statistic is the same
double as a search of every value.

Every pool-sized array of the solve is allocated on the main thread.
solve_r makes two pool-sized 8-byte buffers that alternate: while
generation g is summed, one holds its running ends, and the other,
which held those of g-1, is first the helper's sort buffer (viewed as
doubles) for the rows of g-1 and then receives the counts of g+1,
which model.sample draws into it in blocks (see InDegreeModel.sample)
and _running_ends sums in place. The helper thread allocates only
block- and chunk-sized temporaries. glibc gives each thread its own
malloc arena, and one that has served pool-sized arrays keeps much of
their memory after the solve; on the main thread that memory is
reused by what the run does next.

Memory, in pool-sized arrays for a grid of C values of c: while
generation g is summed and the rows of g-1 are taken, the C pools of
g-1, the C arrays of sums, the C pools of g-2 and the two buffers,
3C + 2; then the helper drops generation g-2 and draws the next
counts into its buffer beside 2C + 2 of them. Without history no row
reads generation g-2, so the main thread drops it before it makes
the sums of g, and the solve holds 2C + 2 throughout; the helper
then no longer sorts 2C pools every generation either. The chunk and
block temporaries of both threads, a few MiB, come on top.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import accel
from .errors import ParameterError, StateError
from .rng import KEY_GENERATION, KEY_PICK, check_seed, derive, stream
from .rvmodel import InDegreeModel, tail_spec_for_mean
from .samples import write_table

# picks drawn and summed at once: 0.25 MiB per pick-sized temporary
# (the indices and the kernel's 1.0 weights). In solve_r these
# temporaries add to the peak that the helper's work sets. Solves at
# the model and compare settings ran as fast at 2^15 as at 2^16 or
# 2^17, within the host's noise, and about 10% slower at 2^13.
_CHUNK = 1 << 15
# sorted values ranked at once in ks_distance: 128 KiB per temporary.
# Much smaller chunks cost more time than they save memory: in solve_r
# every numpy call hands the GIL to the other thread and waits for it.
_KS_CHUNK = 1 << 14
# every _KS_STRIDE-th value of ks_distance's first sample is a coarse
# point of its bound. On a seed-7 generation pair at pool 10^6 (2
# vCPUs), strides 32 to 128 took 8 to 9 ms, 256 took 12 ms and 512
# took 34 ms; searching every value took about 90 ms.
_KS_STRIDE = 128

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
        # the in-degree model refuses T draws beyond numpy's Poisson limit
        self.in_degree_model()

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
    """Seed of generation g = generations of solve_r under seed, on
    which that generation's degree and pick streams run. A run of g
    generations ends with generation g, so this is its last seed.

    Drawing a reference N(T) sample with the last seed reproduces the
    exact in-degree draws behind the final pool, so R-vs-N comparisons
    (tail offsets, Hill-fit differences, dominance checks) cancel the
    shared extreme-draw noise instead of stacking two independent
    heavy-tail fluctuations. solve_r derives each generation's seed
    here as it draws that generation's counts and sums its picks, so
    the solve and its reference sample cannot drift apart.
    """
    if generations < 1:
        raise ParameterError(f"generations must be at least 1, got {generations}")
    return derive(seed, KEY_GENERATION, generations)


def iterate_generation(pools: list, grid, ends: np.ndarray, seed: int) -> list:
    """One rewrite of each pool through the right-hand side of the
    equation with its own c of the grid; every next pool has as many
    members as the pools. ends are the running ends of one draw of the
    counts (see _running_ends); they and one pick stream serve all
    pools, and the picks are drawn and summed _CHUNK at a time (see the
    module docstring)."""
    size = pools[0].size
    if size == 0:
        raise StateError("cannot iterate from an empty pool")
    total = int(ends[-1])
    rng = stream(seed, KEY_PICK)
    sums = [np.zeros(size) for _ in pools]
    for lo in range(0, total, _CHUNK):
        hi = min(lo + _CHUNK, total)
        idx = rng.integers(0, size, size=hi - lo)
        # segments first..last hold picks lo..hi-1; a zero-count one
        # between them sums to 0, one at a seam is never touched
        first = int(np.searchsorted(ends, lo, side="right"))
        last = int(np.searchsorted(ends, hi - 1, side="right"))
        offsets = np.concatenate(([lo], np.minimum(ends[first:last + 1], hi))) - lo
        accel.segment_sums(pools, idx, offsets, [out[first:last + 1] for out in sums])
    # in place, the same rounding as (c/d) * sums + (1 - c)
    for out, params in zip(sums, grid):
        out *= params.c / params.d
        out += 1.0 - params.c
    return sums


def _running_ends(model, size: int, seed: int, out: np.ndarray | None = None) -> np.ndarray:
    """Where each output's picks end in the generation's pick stream:
    the running sum of one draw of the counts, in out (a new int64
    array when out is None)."""
    if out is None:
        out = np.empty(size, dtype=np.int64)
    return np.cumsum(model.sample(size, seed, out=out), out=out)


def ks_distance(a: np.ndarray, b: np.ndarray, *, presorted: bool = False) -> float:
    """Exact two-sample Kolmogorov-Smirnov statistic.

    The statistic is the largest |F_a(v) - F_b(v)| over the sample
    values v, with F the right-continuous empirical CDFs. Each sample
    is sorted into a copy, and neither input is changed. A caller that
    has just sorted both samples passes presorted=True, which skips
    the two sorts; the samples must then be in np.sort's order, and
    NaN is still rejected. Every gap is taken as integer counts, each
    divided by its own sample size:
    F_a(v) - F_b(v) = A/n_a - B/n_b with A and B the counts of values
    at or below v, which is the same arithmetic as evaluating both
    empirical CDFs on the pooled grid, so the statistic, and with it
    diagnostics.csv, is identical bit for bit.

    The search is bound and refine. The coarse points are every
    _KS_STRIDE-th value of a and its last; one searchsorted in each
    sample counts both at or below all of them, and the largest gap
    there is exact. Between two coarse points the counts only grow,
    from (A_lo, B_lo) to (A_hi, B_hi), so no gap in that stretch
    exceeds max(A_hi/n_a - B_lo/n_b, B_hi/n_b - A_lo/n_a). Division
    by a positive size and subtraction round monotonically, so the
    bound holds for the rounded gaps too. Only runs of stretches whose
    bound beats the largest gap found so far, taken from the highest
    bound down, are searched exactly (see _largest_gap). Below a's
    first value F_a is 0 and the largest gap is the share of b there;
    above a's last, F_a is 1 and F_b only grows, so no gap there beats
    the one at a's last value. NaN has no place in the order (it does
    not equal itself, so its ties cannot be grouped) and is rejected.
    Memory is the sorted copies plus a few chunk-sized temporaries.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or b.ndim != 1 or a.size == 0 or b.size == 0:
        raise ParameterError("KS distance requires two nonempty 1-d samples")
    if not presorted:
        a, b = np.sort(a), np.sort(b)
    # the sort puts NaN last, so each sample's last value tells
    if np.isnan(a[-1]) or np.isnan(b[-1]):
        raise ParameterError("KS distance is undefined for NaN samples")
    points = np.append(a[::_KS_STRIDE], a[-1])
    rank_a = np.searchsorted(a, points, side="right")
    rank_b = np.searchsorted(b, points, side="right")
    cdf_a, cdf_b = rank_a / a.size, rank_b / b.size
    gap = max(float(np.abs(cdf_a - cdf_b).max()), int(np.searchsorted(b, a[0], side="left")) / b.size)
    # stretch k holds the values above coarse point k, up to point k + 1
    bound = np.maximum(cdf_a[1:] - cdf_b[:-1], cdf_b[1:] - cdf_a[:-1])
    # runs of stretches whose bound beats the gap: stretches first[k]
    # to stop[k] - 1; the bounds between two runs are all below the
    # gap, so the largest from one run's first to the next is its own
    edges = np.flatnonzero(np.diff(bound > gap, prepend=False, append=False))
    first, stop = edges[::2], edges[1::2]
    run_bound = np.maximum.reduceat(bound, first) if first.size else first
    for k in np.argsort(-run_bound, kind="stable"):
        if not run_bound[k] > gap:
            break
        lo, hi = first[k], stop[k]
        gap = max(
            gap,
            _largest_gap(a, b, int(rank_a[lo]), int(rank_a[hi])),
            _largest_gap(b, a, int(rank_b[lo]), int(rank_b[hi])),
        )
    return gap


def _largest_gap(a: np.ndarray, b: np.ndarray, start: int, stop: int) -> float:
    """Largest |F_a(v) - F_b(v)| over the values v of a[start:stop],
    a window of whole runs of equal values; a and b are in ascending
    order. The count of a's values at or below the last value of
    each run is its own position, and b's count is a searchsorted,
    _KS_CHUNK values at a time, each in the window of b that the
    chunk's first and last values bound."""
    gap = 0.0
    for lo in range(start, stop, _KS_CHUNK):
        hi = min(lo + _KS_CHUNK, stop)
        # with the next value, so that a run of equal values going on
        # past hi ends in the chunk where it ends
        run = a[lo:hi + 1]
        last = np.flatnonzero(run[1:] != run[:-1])
        if hi == a.size:
            last = np.append(last, hi - lo - 1)
        if last.size == 0:
            continue
        values = run[last]
        # every b-value below the first of these values is at or below
        # each of them, and none above the last one is
        lo_b = int(np.searchsorted(b, values[0], side="left"))
        hi_b = int(np.searchsorted(b, values[-1], side="right"))
        rank_b = np.searchsorted(b[lo_b:hi_b], values, side="right")
        rank_b += lo_b
        # the values' buffer takes F_a, then the gap
        last += lo + 1
        diff = np.divide(last, a.size, out=values)
        del last
        diff -= rank_b / b.size
        gap = max(gap, float(np.abs(diff, out=diff).max()))
    return gap


def check_solve_args(pool_size: int, generations: int, seed: int) -> None:
    """Raise ParameterError unless solve_r accepts this pool size,
    generation count and seed."""
    check_seed(seed)
    if generations < 1:
        raise ParameterError(f"generations must be at least 1, got {generations}")
    if pool_size < MIN_POOL_SIZE:
        raise ParameterError(f"pool_size must be at least {MIN_POOL_SIZE}, got {pool_size}")


def _diagnose(generation: int, pools: list, older: list, scratch: np.ndarray) -> list:
    """One diagnostics row per pool of a generation. older holds the
    previous generation's pools, which this sorts in place; each pool
    is sorted in scratch, one pool-sized 8-byte buffer that serves the
    whole grid."""
    rows = []
    ordered = scratch.view(np.float64)
    for pool, old in zip(pools, older):
        np.copyto(ordered, pool)
        ordered.sort()
        old.sort()
        rows.append(
            GenerationDiagnostics(
                generation=generation,
                mean=float(pool.mean()),
                ks=ks_distance(ordered, old, presorted=True),
                top=tuple(float(v) for v in ordered[:-_TOP_COUNT - 1:-1]),
            )
        )
    return rows


def solve_r(
    grid,
    model,
    pool_size: int,
    generations: int,
    seed: int,
    history: bool = True,
) -> list:
    """Iterate one pool per ModelParams of the grid to distributional
    convergence; returns one SolveResult per grid entry, in order.

    The grid's entries must share d and alpha, which with the seed fix
    every draw (see the module docstring); model is their in-degree
    model, and only the helper thread calls its sample(n, seed, out),
    which writes the counts into the int64 array out. Each result
    carries one diagnostics row per generation (mean, KS distance to
    the previous generation, top-10 values so heavy-tail resampling
    stays auditable). With history=False each result carries only
    the last generation's row, the one that converged and ks_final
    read, and the solve holds 2C + 2 pool-sized arrays in place of
    3C + 2 for a grid of C (see the module docstring); the pools and
    that row are the same, bit for bit, as with history. A final KS
    above KS_THRESHOLD only clears the converged flag; the final pool
    is still returned. The pools start from R = 1 identically: the
    exact mean, and the exact solution when N = d is deterministic.

    The helper thread is the one worker of an executor that the call
    makes; whether it returns or raises, no thread of it is left
    running. An exception of the helper's draws or rows is raised here
    as it was raised there.
    """
    # imported here: concurrent.futures brings logging into the CLI's start-up
    from concurrent.futures import ThreadPoolExecutor

    if not grid:
        raise ParameterError("the c grid must hold at least one ModelParams")
    if any((p.d, p.alpha) != (grid[0].d, grid[0].alpha) for p in grid):
        raise ParameterError("every ModelParams of a grid must share d and alpha")
    check_solve_args(pool_size, generations, seed)
    pools = [np.ones(pool_size)] * len(grid)
    # generation g's running ends go to buffers[g % 2]; the other one is
    # the helper's, first to sort in, then for the next counts
    buffers = [np.empty(pool_size, dtype=np.int64) for _ in range(2)]
    rows = []
    helper = ThreadPoolExecutor(1, thread_name_prefix="prtail-solve-helper")
    try:
        counts = helper.submit(_running_ends, model, pool_size, final_generation_seed(seed, 1), buffers[1])
        for g in range(1, generations + 1):
            if rows:
                rows[-1].result()  # generation g-2
            ends = counts.result()
            spare = buffers[(g + 1) % 2]  # generation g-1's ends, summed
            if history and g > 1:
                rows.append(helper.submit(_diagnose, g - 1, pools, older, spare))
            if g < generations:
                next_seed = final_generation_seed(seed, g + 1)
                counts = helper.submit(_running_ends, model, pool_size, next_seed, spare)
            # generation g-2 is the helper's alone from here; without
            # its row, this drops it before the sums are allocated
            older = pools
            pools = iterate_generation(older, grid, ends, final_generation_seed(seed, g))
        rows.append(helper.submit(_diagnose, generations, pools, older, ends))
        columns = zip(*(future.result() for future in rows))
    finally:
        helper.shutdown(cancel_futures=True)
    return [
        SolveResult(values=pool, diagnostics=column, converged=column[-1].ks <= KS_THRESHOLD)
        for pool, column in zip(pools, columns)
    ]


def save_diagnostics(diagnostics, path) -> None:
    """CSV audit trail: generation, mean, KS, then the top-10 values."""
    top_headers = ["max"] + [f"top{i:02d}" for i in range(2, _TOP_COUNT + 1)]
    values = np.array([(row.mean, row.ks, *row.top) for row in diagnostics])
    write_table(
        path,
        "generation,mean,ks," + ",".join(top_headers) + "\n",
        "%d" + ",%r" * (2 + _TOP_COUNT) + "\n",
        np.array([row.generation for row in diagnostics]),
        *values.T,
    )
