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
bit, as a solve of that c alone.

solve_r runs on two threads, with nothing to set. The main thread
does the sums of each generation: the pick draws, the seam search and
segment_sums, through iterate_generation. One helper thread, started
and joined by each solve_r call, does what the sums do not wait for:
while generation g is summed, it takes the diagnostics rows of
generation g-1, then draws the counts of generation g+1 (model.sample
and their running ends). numpy lets go of the GIL in the gathers,
np.add.at, the sorts, the searches and the draws, so on two CPUs the
threads compute at once; on one they take turns. The main thread
hands the helper its calls and takes their results in order. A call
that raises hands its exception to the main thread, which raises it;
on any exception the helper skips the calls it has not started and is
joined before solve_r returns.

Threading changes no byte. Each random stream has one consumer in its
original order: the degree streams (tags 1 and 2) the helper, the pick
stream the main thread. The sums are the same np.add.at calls in the
same order. A diagnostics row reads only pools that are finished: the
mean is taken on the pool in its own order, the KS distance is
integer ranks, each divided by its own sample size (see ks_distance),
and the top 10 are read off the sorted pool. The rows of generation g-1
compare its pools with those of g-2, which nothing gathers from any
more, so the helper sorts those in place and copies each pool of g-1
into one sorted buffer.

Memory, in pool-sized arrays for a grid of C values of c: while
generation g is summed and the rows of g-1 are taken, the C pools of
g-1, the C arrays of sums, the C pools of g-2, the sorted buffer and
the running ends, 3C + 2; then the helper drops generation g-2 and
draws the next counts beside 2C + 1 of them. The chunk temporaries of
both threads, a few MiB, come on top.
"""

from __future__ import annotations

import math
import queue
import threading
from dataclasses import dataclass

import numpy as np

from . import accel
from .errors import ParameterError, StateError
from .rng import check_seed, derive, stream
from .rvmodel import POISSON_MEAN_MAX, InDegreeModel, pareto_scale_for_mean, tail_spec_for_mean

_TAG_PICK = 3  # pool-index stream; tags 1 and 2 belong to the degree model
_TAG_GEN = 4   # per-generation sub-seed derivation
# picks drawn and summed at once: 0.25 MiB per pick-sized temporary.
# In solve_r these temporaries add to the peak that the helper's work
# sets, and larger chunks run no faster.
_CHUNK = 1 << 15
# sorted values ranked at once in ks_distance: 128 KiB per temporary.
# Much smaller chunks cost more time than they save memory: in solve_r
# every numpy call hands the GIL to the other thread and waits for it.
_KS_CHUNK = 1 << 14

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
        # the largest T that TailSpec.sample can return, at u = 2^-53, is
        # the largest mean the in-degree draw hands to numpy's poisson
        top = pareto_scale_for_mean(self.alpha, self.d) * (2.0**-53) ** (-1.0 / self.alpha)
        if not top <= POISSON_MEAN_MAX:
            raise ParameterError(
                f"d={self.d!r} and alpha={self.alpha!r} allow draws of T up to {top!r}, "
                f"above numpy's Poisson limit {POISSON_MEAN_MAX!r}"
            )

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


def iterate_generation(pools: list, grid, model, seed: int, ends=None) -> list:
    """One rewrite of each pool through the right-hand side of the
    equation with its own c of the grid; every next pool has as many
    members as the pools. One draw of the counts and one pick stream
    serve all pools, and the picks are drawn and summed _CHUNK at a
    time (see the module docstring). ends, when given, are the running
    ends of model.sample(size, seed), drawn ahead as solve_r's helper
    does; the model is then not called."""
    size = pools[0].size
    if size == 0:
        raise StateError("cannot iterate from an empty pool")
    if ends is None:
        ends = _running_ends(model, size, seed)
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


def _running_ends(model, size: int, seed: int) -> np.ndarray:
    """Where each output's picks end in the generation's pick stream:
    the running sum of one draw of the counts."""
    return np.cumsum(np.asarray(model.sample(size, seed), dtype=np.int64))


def ks_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Exact two-sample Kolmogorov-Smirnov statistic.

    The statistic is the largest |F_a(v) - F_b(v)| over the sample
    values v, with F the right-continuous empirical CDFs. Each sample
    is put in ascending order (a sorted copy; a sample already in
    order is used as it is, and neither input is changed). Then, for
    the last value of each run of equal values in either sample, the
    integer count of values at or below it comes from its own position
    and from a searchsorted in the other sample, _KS_CHUNK values at a
    time, each search in the window the chunk's first and last values
    bound. The counts stay integers until each is divided by its own
    sample size, which is the same arithmetic as evaluating both
    empirical CDFs on the pooled grid: the statistic, and with it
    diagnostics.csv, is identical bit for bit. NaN has no place in the
    order (it does not equal itself, so its ties cannot be grouped)
    and is rejected. Memory is the sorted copies plus a few chunk-sized
    temporaries.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or b.ndim != 1 or a.size == 0 or b.size == 0:
        raise ParameterError("KS distance requires two nonempty 1-d samples")
    a, b = _ascending(a), _ascending(b)
    # the sort puts NaN last, so each sample's last value tells
    if np.isnan(a[-1]) or np.isnan(b[-1]):
        raise ParameterError("KS distance is undefined for NaN samples")
    return max(_largest_gap(a, b), _largest_gap(b, a))


def _ascending(x: np.ndarray) -> np.ndarray:
    """x when it is in ascending order (NaN never is, past one value),
    else a sorted copy."""
    for lo in range(0, x.size - 1, _KS_CHUNK):
        hi = min(lo + _KS_CHUNK, x.size - 1)
        if not np.all(x[lo:hi] <= x[lo + 1:hi + 1]):
            return np.sort(x)
    return x


def _largest_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Largest |F_a(v) - F_b(v)| over the values v of a; a and b are
    in ascending order."""
    gap = 0.0
    for lo in range(0, a.size, _KS_CHUNK):
        hi = min(lo + _KS_CHUNK, a.size)
        # with the next chunk's first value, so that a run of equal
        # values going on past hi ends in the chunk where it ends
        run = a[lo:hi + 1]
        last = np.flatnonzero(run[1:] != run[:-1])
        if hi == a.size:
            last = np.append(last, hi - lo - 1)
        if last.size == 0:
            continue
        values = run[last]
        # every b-value below the first of these values is at or below
        # each of them, and none above the last one is
        start = int(np.searchsorted(b, values[0], side="left"))
        stop = int(np.searchsorted(b, values[-1], side="right"))
        rank_b = np.searchsorted(b[start:stop], values, side="right")
        rank_b += start
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


class _Helper:
    """solve_r's one helper thread. It runs the calls handed to submit
    one after another; result() returns the next call's value, in the
    order submitted, or raises the exception that call raised."""

    def __init__(self):
        self._calls = queue.SimpleQueue()
        self._results = queue.SimpleQueue()
        self._closing = False
        self._thread = threading.Thread(target=self._serve, name="prtail-solve-helper")
        self._thread.start()

    def _serve(self) -> None:
        while (call := self._calls.get()) is not None:
            if not self._closing:
                fn, args = call
                try:
                    self._results.put((True, fn(*args)))
                except BaseException as exc:
                    self._results.put((False, exc))
                # the arguments' pools go now, not when the next call comes
                del fn, args
            del call

    def submit(self, fn, *args) -> None:
        self._calls.put((fn, args))

    def result(self):
        done, value = self._results.get()
        if not done:
            raise value
        return value

    def close(self) -> None:
        """Skip the calls not yet started, let a running one finish,
        and join the thread."""
        self._closing = True
        self._calls.put(None)
        self._thread.join()


def _diagnose(generation: int, pools: list, older: list) -> list:
    """One diagnostics row per pool of a generation. older holds the
    previous generation's pools, which this sorts in place; each pool
    is sorted in one buffer that serves the whole grid."""
    rows = []
    ordered = np.empty_like(pools[0])
    for pool, old in zip(pools, older):
        np.copyto(ordered, pool)
        ordered.sort()
        old.sort()
        rows.append(
            GenerationDiagnostics(
                generation=generation,
                mean=float(pool.mean()),
                ks=ks_distance(ordered, old),
                top=tuple(float(v) for v in ordered[:-_TOP_COUNT - 1:-1]),
            )
        )
    return rows


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
    model, and only the helper thread calls its sample. Each result
    carries one diagnostics row per generation (mean, KS distance to
    the previous generation, top-10 values so heavy-tail resampling
    stays auditable). A final KS above KS_THRESHOLD only clears the
    converged flag; the final pool is still returned. The pools start
    from R = 1 identically: the exact mean, and the exact solution
    when N = d is deterministic.
    """
    if not grid:
        raise ParameterError("the c grid must hold at least one ModelParams")
    if any((p.d, p.alpha) != (grid[0].d, grid[0].alpha) for p in grid):
        raise ParameterError("every ModelParams of a grid must share d and alpha")
    check_solve_args(pool_size, generations, seed)
    seeds = [derive(seed, _TAG_GEN, g) for g in range(1, generations + 1)]
    pools = [np.ones(pool_size)] * len(grid)
    diagnostics = [[] for _ in grid]
    helper = _Helper()
    try:
        helper.submit(_running_ends, model, pool_size, seeds[0])
        for g, gen_seed in enumerate(seeds, 1):
            # results come in the order submitted: the rows of
            # generation g-2, then the counts of generation g
            if g > 2:
                _append_rows(diagnostics, helper.result())
            ends = helper.result()
            if g > 1:
                helper.submit(_diagnose, g - 1, pools, older)
            if g < generations:
                helper.submit(_running_ends, model, pool_size, seeds[g])
            # generation g-2 is the helper's alone from here
            older = pools
            pools = iterate_generation(older, grid, model, gen_seed, ends=ends)
        if generations > 1:
            _append_rows(diagnostics, helper.result())
        helper.submit(_diagnose, generations, pools, older)
        _append_rows(diagnostics, helper.result())
    finally:
        helper.close()
    return [
        SolveResult(values=pool, diagnostics=tuple(rows), converged=rows[-1].ks <= KS_THRESHOLD)
        for pool, rows in zip(pools, diagnostics)
    ]


def _append_rows(diagnostics: list, rows: list) -> None:
    for column, row in zip(diagnostics, rows):
        column.append(row)


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
