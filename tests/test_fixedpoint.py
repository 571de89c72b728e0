"""Population-dynamics iteration of the distributional fixed point."""

import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from prtail import accel, fixedpoint
from prtail.errors import ParameterError, StateError
from prtail.fixedpoint import (
    ModelParams,
    final_generation_seed,
    iterate_generation,
    ks_distance,
    save_diagnostics,
    solve_r,
)
from prtail.rng import stream
from prtail.rvmodel import InDegreeModel
from prtail.tailstats import fit_tail_fraction

from models import ConstantInDegree, PoissonInDegree


def test_poisson_in_degree_mean():
    counts = PoissonInDegree(8.2).sample(100_000, seed=4)
    assert counts.mean() == pytest.approx(8.2, abs=3.0 * np.sqrt(8.2 / 100_000))
    with pytest.raises(ParameterError):
        PoissonInDegree(-1.0)


def test_constant_in_degree():
    counts = ConstantInDegree(8).sample(100, seed=0)
    assert np.array_equal(counts, np.full(100, 8))
    with pytest.raises(ParameterError):
        ConstantInDegree(-1)
    with pytest.raises(ParameterError):
        ConstantInDegree(8).sample(10, seed=-3)


def lower_bound_samples(model, params, n, seed):
    """Draws of (1-c)((c/d)N + 1), which R dominates stochastically."""
    counts = np.asarray(model.sample(n, seed), dtype=float)
    return (1.0 - params.c) * ((params.c / params.d) * counts + 1.0)


def test_model_params_validation():
    ModelParams(c=0.5, d=8.2, alpha=1.1)
    for bad in (
        dict(c=0.0, d=8.2, alpha=1.1),
        dict(c=1.0, d=8.2, alpha=1.1),
        dict(c=0.5, d=1.0, alpha=1.1),
        dict(c=0.5, d=8.2, alpha=1.0),
        dict(c=0.5, d=float("inf"), alpha=1.1),
        dict(c=0.5, d=8.2, alpha=float("inf")),
        dict(c=float("nan"), d=8.2, alpha=1.1),
        dict(c=0.5, d=float("nan"), alpha=1.1),
        dict(c=0.5, d=8.2, alpha=float("nan")),
    ):
        with pytest.raises(ParameterError):
            ModelParams(**bad)


def test_model_params_reject_t_draws_beyond_the_poisson_limit():
    # TailSpec.sample inverts u = 1 - rng.random() >= 2^-53, so its
    # largest draw is x_scale * 2^(53/alpha); numpy's poisson rejects a
    # mean above max_int64 - 10*sqrt(max_int64)
    limit = np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10
    alpha = 1.1
    growth = (alpha - 1.0) / alpha * 2.0 ** (53.0 / alpha)  # largest draw per unit d
    below, above = limit / growth * (1 - 1e-9), limit / growth * (1 + 1e-9)
    assert below * growth < limit < above * growth
    rng = np.random.default_rng(0)
    rng.poisson(below * growth)
    with pytest.raises(ValueError, match="lam value too large"):
        rng.poisson(above * growth)
    ModelParams(c=0.5, d=below, alpha=alpha)
    for bad in (
        dict(c=0.5, d=above, alpha=alpha),
        dict(c=0.5, d=1e300, alpha=alpha),
        dict(c=0.5, d=8.2, alpha=1e308),  # x_scale = d*(alpha-1)/alpha overflows
    ):
        with pytest.raises(ParameterError, match="Poisson limit"):
            ModelParams(**bad)


def test_degenerate_in_degree_keeps_pool_at_one():
    # N identically d with R-pool identically 1 reproduces the exact
    # solution: each output is c*d*(1/d)*1 + (1-c) = 1, bit for bit
    # when c/d*d and the complement sum are exact (d a power of two)
    params = ModelParams(c=0.85, d=8.0, alpha=1.1)
    [nxt] = iterate_generation([np.ones(500)], [params], ConstantInDegree(8), seed=1)
    assert nxt.shape == (500,)
    assert np.all(nxt == 1.0)
    # solve_r starts from that same R = 1 pool, so every generation stays there
    [result] = solve_r([params], ConstantInDegree(8), pool_size=1000, generations=3, seed=1)
    assert np.all(result.values == 1.0)
    assert [row.ks for row in result.diagnostics] == [0.0, 0.0, 0.0]


def test_tiny_damping_collapses_to_one():
    params = ModelParams(c=1e-6, d=8.2, alpha=1.1)
    model = InDegreeModel(params.in_degree_model().tail)
    [nxt] = iterate_generation([np.ones(10_000)], [params], model, seed=2)
    assert nxt.min() >= 1.0 - 1e-6
    assert nxt.max() <= 1.0 + 1e-3  # (c/d) * max count dominates the excess


def test_zero_in_degree_gives_floor_exactly():
    params = ModelParams(c=0.3, d=8.2, alpha=1.1)
    [result] = solve_r([params], ConstantInDegree(0), pool_size=1000, generations=1, seed=3)
    assert np.all(result.values == 1.0 - 0.3)


def test_empty_pool_is_a_state_error():
    params = ModelParams(c=0.5, d=8.2, alpha=1.1)
    with pytest.raises(StateError):
        iterate_generation([np.ones(0)], [params], ConstantInDegree(1), seed=0)


def test_solve_r_preconditions():
    params = ModelParams(c=0.5, d=8.2, alpha=1.1)
    model = ConstantInDegree(3)
    with pytest.raises(ParameterError):
        solve_r([params], model, pool_size=999, generations=1, seed=0)
    with pytest.raises(ParameterError):
        solve_r([params], model, pool_size=1000, generations=0, seed=0)


def test_floor_holds_every_generation():
    params = ModelParams(c=0.9, d=8.2, alpha=1.1)
    model = params.in_degree_model()
    pool = np.ones(2000)
    for g in range(1, 6):
        [pool] = iterate_generation([pool], [params], model, seed=g)
        assert pool.min() >= 1.0 - 0.9


def _iterate_reference(pools, grid, model, seed, ends=None):
    # one pass per pool: every pick of the generation drawn and summed
    # at once, each pool from its own draw of the counts and picks;
    # the ends solve_r's helper drew ahead are left unused
    nxt = []
    for pool, params in zip(pools, grid):
        counts = np.asarray(model.sample(pool.size, seed), dtype=np.int64)
        idx = stream(seed, fixedpoint._TAG_PICK).integers(0, pool.size, size=int(counts.sum()))
        seg = np.repeat(np.arange(pool.size), counts)
        sums = np.bincount(seg, weights=pool[idx], minlength=pool.size)
        nxt.append((params.c / params.d) * sums + (1.0 - params.c))
    return nxt


class _FixedCounts:
    """In-degree model that returns the given counts."""

    def __init__(self, counts):
        self.counts = np.asarray(counts, dtype=np.int64)

    def sample(self, n, seed):
        assert n == self.counts.size
        return self.counts


SEAM_COUNTS = {
    # one segment spanning many chunks, between short ones
    "long segment": [3] + [0] * 5 + [500, 2, 1] + [0] * 41,
    # totals 7, 14, 21: zero-count segments sit at the seams of chunk 7
    "zeros at seams": [7, 0, 0, 7, 0, 4, 3, 0, 0] + [0] * 41,
    # 448 = 7 * 64 picks, a whole number of chunks of 1, 7 and 64
    "exact multiple": [64] * 7 + [0] * 43,
    "all zero": [0] * 50,
}


@pytest.mark.parametrize("chunk", [1, 7, 64, None])
@pytest.mark.parametrize("case", sorted(SEAM_COUNTS))
def test_chunk_seams_are_exact(monkeypatch, chunk, case):
    if chunk is not None:
        monkeypatch.setattr(fixedpoint, "_CHUNK", chunk)
    grid = [ModelParams(c=0.7, d=8.2, alpha=1.1), ModelParams(c=0.3, d=8.2, alpha=1.1)]
    # values of very different scales make any change of summation order show
    rng = np.random.default_rng(5)
    pools = [rng.pareto(1.1, 50) * 1e3 + 1.0 / 3.0, rng.pareto(1.1, 50) * 1e2 + 1.0 / 7.0]
    model = _FixedCounts(SEAM_COUNTS[case])
    for seed in (1, 2):
        got = iterate_generation(pools, grid, model, seed)
        ref = _iterate_reference(pools, grid, model, seed)
        assert len(got) == 2
        for a, b in zip(got, ref):
            assert np.array_equal(a, b)


def test_default_chunk_exact_multiple():
    # two whole default chunks, one segment crossing the seam
    params = ModelParams(c=0.7, d=8.2, alpha=1.1)
    pool = np.random.default_rng(6).pareto(1.1, 1000) + 0.1
    counts = np.zeros(1000, dtype=np.int64)
    counts[[3, 10, 500]] = [fixedpoint._CHUNK - 5, 10, fixedpoint._CHUNK - 5]
    model = _FixedCounts(counts)
    [got] = iterate_generation([pool], [params], model, 3)
    [ref] = _iterate_reference([pool], [params], model, 3)
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("chunk", [1, 7, 64, None])
def test_chunked_solve_matches_one_pass_diagnostics(monkeypatch, chunk):
    params = ModelParams(c=0.9, d=8.2, alpha=1.1)
    model = params.in_degree_model()
    if chunk is not None:
        monkeypatch.setattr(fixedpoint, "_CHUNK", chunk)
    [chunked] = solve_r([params], model, pool_size=2000, generations=4, seed=17)
    monkeypatch.setattr(fixedpoint, "iterate_generation", _iterate_reference)
    [one_pass] = solve_r([params], model, pool_size=2000, generations=4, seed=17)
    assert chunked.diagnostics == one_pass.diagnostics
    assert np.array_equal(chunked.values, one_pass.values)


GRID = [ModelParams(c=c, d=8.2, alpha=1.1) for c in (0.1, 0.5, 0.9)]


@pytest.fixture(scope="module")
def single_c_solves():
    """Each c of GRID solved on its own, at the default chunk size."""
    model = GRID[0].in_degree_model()
    return [solve_r([params], model, pool_size=2000, generations=4, seed=17)[0] for params in GRID]


@pytest.mark.parametrize("chunk", [1, 7, 64, None])
def test_grid_solve_matches_single_c_solves(monkeypatch, single_c_solves, chunk):
    # chunked single-c solves equal the default-chunk ones (see above),
    # so one reference serves every chunk size
    if chunk is not None:
        monkeypatch.setattr(fixedpoint, "_CHUNK", chunk)
    together = solve_r(GRID, GRID[0].in_degree_model(), pool_size=2000, generations=4, seed=17)
    assert len(together) == len(GRID)
    for result, alone in zip(together, single_c_solves):
        assert np.array_equal(result.values, alone.values)
        assert len(result.diagnostics) == 4
        assert result.diagnostics == alone.diagnostics
        assert result.converged == alone.converged
    # the c values differ, so the pools must too
    assert not np.array_equal(together[0].values, together[2].values)


def test_grid_must_share_d_and_alpha():
    model = ModelParams(c=0.5, d=8.2, alpha=1.1).in_degree_model()
    for other in (ModelParams(c=0.9, d=8.0, alpha=1.1), ModelParams(c=0.9, d=8.2, alpha=1.5)):
        with pytest.raises(ParameterError):
            solve_r([ModelParams(c=0.5, d=8.2, alpha=1.1), other], model, pool_size=1000,
                    generations=1, seed=0)
    with pytest.raises(ParameterError):
        solve_r([], model, pool_size=1000, generations=1, seed=0)


def _solve_reference(grid, model, pool_size, generations, seed):
    """solve_r on one thread, one step after another: the one-pass
    generation, then each row from the reference KS, the mean and a
    full sort."""
    pools = [np.ones(pool_size)] * len(grid)
    rows = [[] for _ in grid]
    for g in range(1, generations + 1):
        nxt = _iterate_reference(pools, grid, model, final_generation_seed(seed, g))
        for column, pool, old in zip(rows, nxt, pools):
            top = tuple(float(v) for v in np.sort(pool)[::-1][:10])
            column.append(fixedpoint.GenerationDiagnostics(g, float(pool.mean()), _ks_reference(pool, old), top))
        pools = nxt
    return pools, rows


class _SlowModel:
    """The wrapped model, with a pause before every draw."""

    def __init__(self, model, pause):
        self.model = model
        self.pause = pause

    def sample(self, n, seed):
        time.sleep(self.pause)
        return self.model.sample(n, seed)


def _slowed(fn, pause):
    def slow(*args):
        time.sleep(pause)
        return fn(*args)

    return slow


@pytest.mark.parametrize("timing", ["plain", "slow draws", "slow diagnostics", "slow sums", "fast switching"])
def test_solve_is_independent_of_thread_timing(monkeypatch, timing):
    # whichever thread lags, and however often the two trade the GIL,
    # the pools and every diagnostics row are the one-thread reference's
    model = GRID[0].in_degree_model()
    pools, rows = _solve_reference(GRID, model, 2000, 4, 17)
    if timing == "slow draws":
        model = _SlowModel(model, 0.05)
    elif timing == "slow diagnostics":
        monkeypatch.setattr(fixedpoint, "_diagnose", _slowed(fixedpoint._diagnose, 0.05))
    elif timing == "slow sums":
        monkeypatch.setattr(accel, "segment_sums", _slowed(accel.segment_sums, 0.002))
    interval = sys.getswitchinterval()
    if timing == "fast switching":
        sys.setswitchinterval(1e-6)
    try:
        results = solve_r(GRID, model, pool_size=2000, generations=4, seed=17)
    finally:
        sys.setswitchinterval(interval)
    for result, pool, column in zip(results, pools, rows):
        assert np.array_equal(result.values, pool)
        assert result.diagnostics == tuple(column)


class _FailingModel:
    """The wrapped model, counting its draws and raising ParameterError
    at draw number fail_at."""

    def __init__(self, model, fail_at):
        self.model = model
        self.fail_at = fail_at
        self.calls = 0

    def sample(self, n, seed):
        self.calls += 1
        if self.calls == self.fail_at:
            raise ParameterError("draw failed on purpose")
        return self.model.sample(n, seed)


def _assert_fails_cleanly(expected, match, *args, **kwargs):
    # the original exception, raised promptly, and no thread left over
    threads = threading.active_count()
    start = time.monotonic()
    with pytest.raises(expected, match=match):
        solve_r(*args, **kwargs)
    assert time.monotonic() - start < 5.0
    assert threading.active_count() == threads


@pytest.mark.parametrize("fail_at", [1, 2, 4])
def test_solve_reraises_a_failed_draw(fail_at):
    model = _FailingModel(GRID[0].in_degree_model(), fail_at)
    _assert_fails_cleanly(ParameterError, "on purpose", GRID, model, pool_size=2000, generations=4, seed=17)
    assert model.calls == fail_at


def test_solve_reraises_the_ks_rejection_of_a_nan_pool(monkeypatch):
    segment_sums = accel.segment_sums

    def nan_sums(pools, idx, counts, outs):
        segment_sums(pools, idx, counts, outs)
        outs[0][:1] = np.nan

    monkeypatch.setattr(accel, "segment_sums", nan_sums)
    _assert_fails_cleanly(ParameterError, "NaN", GRID, GRID[0].in_degree_model(), pool_size=2000,
                          generations=4, seed=17)


def test_solve_reraises_a_failure_of_the_sums(monkeypatch):
    # the main thread fails part-way through generation 2, while the
    # helper takes the rows of generation 1 with generation 3's draw
    # queued behind them: that draw is skipped
    segment_sums = accel.segment_sums
    calls = []

    def failing_sums(*args):
        calls.append(1)
        if len(calls) == 5:
            raise RuntimeError("sums failed on purpose")
        segment_sums(*args)

    monkeypatch.setattr(accel, "segment_sums", failing_sums)
    monkeypatch.setattr(fixedpoint, "_diagnose", _slowed(fixedpoint._diagnose, 0.3))
    model = _FailingModel(GRID[0].in_degree_model(), fail_at=0)
    _assert_fails_cleanly(RuntimeError, "on purpose", GRID, model, pool_size=20_000, generations=4, seed=17)
    assert model.calls == 2


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_generation_memory_is_bounded():
    # 10^7 picks; held at once they would take 24 bytes each
    grid = [ModelParams(c=c, d=8.2, alpha=1.1) for c in (0.1, 0.5, 0.9)]
    model = ConstantInDegree(10**4)
    iterate_generation([np.ones(1000)], grid[:1], model, 1)  # first-call set-up off the books
    peak_one = _peak_bytes(iterate_generation, [np.ones(1000)], grid[:1], model, 1)
    peak_grid = _peak_bytes(iterate_generation, [np.ones(1000) for _ in grid], grid, model, 1)
    assert peak_one < 16 * 2**20
    assert peak_grid < 16 * 2**20
    # the chunk temporaries are shared: each extra c adds its sums, 8
    # bytes per member, far below one chunk's gather (_CHUNK * 8 bytes),
    # which a temporary held per pool would add
    assert peak_grid < peak_one + 2 * 16 * 1000 + 2**16


def test_ks_distance_memory_is_bounded():
    # two sorted copies, 16 MB at 10^6 + 10^6, plus chunk temporaries
    rng = np.random.default_rng(8)
    a, b = rng.pareto(1.1, 10**6), rng.pareto(1.1, 10**6)
    assert _peak_bytes(ks_distance, a, b) < 16 * 2**20
    # samples already in order are used as they are
    a.sort()
    b.sort()
    assert _peak_bytes(ks_distance, a, b) < 2**20


def _solve_peak_bytes(grid, pool_size):
    model = grid[0].in_degree_model()
    solve_r(grid[:1], model, pool_size=1000, generations=1, seed=1)  # first-call set-up off the books
    return _peak_bytes(solve_r, grid, model, pool_size, 3, 7)


def test_solve_memory_is_within_the_serial_budget():
    # tracemalloc peaks of solve_r (3 generations, seed 7) when each KS
    # row was taken between the generations by a merge sort: 6,404,855 B
    # for a grid of one at pool 10^5 (2C + 6 = 8 pool arrays) and
    # 28,803,441 B for a grid of three at pool 3*10^5 (12 arrays). The
    # overlapped solve holds 3C + 2 pool arrays plus the chunk
    # temporaries of both threads. A grid of three at pool 10^5 read
    # 9,606,322 B then and is not pinned: there those temporaries, about
    # 1 MiB, outweigh the one pool array the overlap saves.
    assert _solve_peak_bytes(GRID[:1], 10**5) <= 6_404_855
    assert _solve_peak_bytes(GRID, 3 * 10**5) <= 28_803_441


def test_ks_distance_hand_values():
    assert ks_distance(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0])) == 0.0
    assert ks_distance(np.array([0.0]), np.array([1.0])) == 1.0
    assert ks_distance(np.array([1.0, 1.0, 2.0, 2.0]), np.array([1.0, 2.0, 2.0, 2.0])) == 0.25


def test_ks_distance_against_scipy():
    from scipy.stats import ks_2samp

    rng = np.random.default_rng(0)
    a, b = rng.random(500), rng.random(700) ** 1.3
    assert ks_distance(a, b) == pytest.approx(ks_2samp(a, b).statistic, abs=1e-12)


def _ks_reference(a, b):
    # pooled-grid formula: both right-continuous CDFs at every sample value
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


def test_ks_distance_bit_identical_on_heavy_ties():
    rng = np.random.default_rng(11)
    for levels in (1, 2, 3, 7):
        for _ in range(50):
            a = rng.integers(0, levels, rng.integers(1, 60)).astype(float)
            b = rng.integers(0, levels, rng.integers(1, 60)).astype(float)
            assert ks_distance(a, b) == _ks_reference(a, b)
    # signed zeros compare equal and must share one tie run
    assert ks_distance(np.array([-0.0, 0.0, 1.0]), np.array([0.0, -0.0])) == _ks_reference(
        np.array([-0.0, 0.0, 1.0]), np.array([0.0, -0.0])
    )


def test_ks_distance_bit_identical_on_unequal_sizes():
    rng = np.random.default_rng(12)
    for na, nb in ((3, 1000), (1000, 3), (999, 1000), (7, 13)):
        a = rng.pareto(1.1, na)
        b = np.round(rng.pareto(1.1, nb), 1)
        assert ks_distance(a, b) == _ks_reference(a, b)


def test_ks_distance_bit_identical_on_single_values():
    for a, b in (([1.0], [1.0]), ([1.0], [2.0]), ([2.0], [1.0]), ([1.0], [0.0, 1.0, 2.0])):
        a, b = np.array(a), np.array(b)
        assert ks_distance(a, b) == _ks_reference(a, b)
        assert ks_distance(b, a) == _ks_reference(b, a)


def test_ks_distance_bit_identical_with_infinities():
    inf = np.inf
    cases = (
        ([-inf, 0.0, inf], [inf, inf]),
        ([inf], [inf]),
        ([-inf, -inf, 1.0], [-inf, 2.0, inf, inf]),
        ([1.0, 2.0], [-inf]),
    )
    for a, b in cases:
        a, b = np.array(a), np.array(b)
        assert ks_distance(a, b) == _ks_reference(a, b)


def _ks_cases():
    """Sample pairs for the KS core: heavy ties, signed zeros,
    infinities, unequal sizes, single values, and runs of equal values
    of many lengths, which cross the seams of small chunks."""
    inf = np.inf
    rng = np.random.default_rng(13)
    cases = [
        ([-0.0, 0.0, 1.0], [0.0, -0.0]),
        ([-1.0, -0.0, 0.0, -0.0, 0.0, 2.0], [0.0, 0.0, -0.0, 3.0]),
        ([-inf, 0.0, inf], [inf, inf]),
        ([inf], [inf]),
        ([-inf, -inf, 1.0], [-inf, 2.0, inf, inf]),
        ([1.0, 2.0], [-inf]),
        ([1.0], [1.0]),
        ([2.0], [1.0]),
        ([1.0], [0.0, 1.0, 2.0]),
    ]
    for levels in (1, 2, 3, 7):
        for _ in range(10):
            cases.append((rng.integers(0, levels, rng.integers(1, 60)).astype(float),
                          rng.integers(0, levels, rng.integers(1, 60)).astype(float)))
    for na, nb in ((3, 1000), (999, 1000), (7, 13)):
        cases.append((rng.pareto(1.1, na), np.round(rng.pareto(1.1, nb), 1)))
    for _ in range(20):
        cases.append((np.repeat(rng.integers(0, 40, 25).astype(float), rng.integers(1, 20, 25)),
                      np.repeat(rng.integers(0, 40, 30).astype(float), rng.integers(1, 20, 30))))
    return [(np.array(a, dtype=float), np.array(b, dtype=float)) for a, b in cases]


@pytest.mark.parametrize("chunk", [1, 7, 64, None])
def test_ks_core_bit_identical_across_chunk_seams(monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr(fixedpoint, "_KS_CHUNK", chunk)
    for a, b in _ks_cases():
        ref = _ks_reference(a, b)
        # as given, and in order, which the core uses without a copy
        for x, y in ((a, b), (np.sort(a), np.sort(b)), (np.sort(a), b)):
            assert ks_distance(x, y) == ref
            assert ks_distance(y, x) == ref


def test_ks_distance_bit_identical_on_generation_pools():
    params = ModelParams(c=0.9, d=8.2, alpha=1.1)
    model = params.in_degree_model()
    pool = np.ones(5000)
    for g in range(1, 6):
        [nxt] = iterate_generation([pool], [params], model, seed=40 + g)
        before = (nxt.copy(), pool.copy())
        assert ks_distance(nxt, pool) == _ks_reference(nxt, pool)
        # the inputs are left as they were
        assert np.array_equal(nxt, before[0]) and np.array_equal(pool, before[1])
        pool = nxt


def test_solve_r_ks_column_matches_reference():
    params = ModelParams(c=0.5, d=8.2, alpha=1.1)
    model = params.in_degree_model()
    [result] = solve_r([params], model, pool_size=2000, generations=6, seed=21)
    pool = np.ones(2000)
    for row in result.diagnostics:
        g = row.generation
        # generation g is seeded as the last generation of a g-generation run
        [nxt] = iterate_generation([pool], [params], model, final_generation_seed(21, g))
        assert row.ks == _ks_reference(nxt, pool)
        pool = nxt
    assert np.array_equal(pool, result.values)


def test_ks_distance_rejects_nan_and_bad_shapes():
    for a, b in (
        ([np.nan], [1.0]),
        ([1.0], [0.0, np.nan]),
        ([np.nan, np.nan], [np.nan]),
    ):
        with pytest.raises(ParameterError):
            ks_distance(np.array(a), np.array(b))
    with pytest.raises(ParameterError):
        ks_distance(np.ones((2, 2)), np.ones(4))
    with pytest.raises(ParameterError):
        ks_distance(np.ones(0), np.ones(4))


def test_solve_r_reproducible_and_tagged():
    params = ModelParams(c=0.5, d=8.2, alpha=1.1)
    model = params.in_degree_model()
    [a] = solve_r([params], model, pool_size=1000, generations=3, seed=9)
    [b] = solve_r([params], model, pool_size=1000, generations=3, seed=9)
    assert np.array_equal(a.values, b.values)
    assert a.values.shape == (1000,)
    assert a.values.dtype == np.float64
    assert a.values.min() >= 0.5
    assert len(a.diagnostics) == 3
    assert a.diagnostics[-1].ks == a.ks_final


def test_generation_seeding_is_stage_consistent():
    # Re-running the last generation by hand with the documented seed
    # must reproduce solve_r's final pool: solve(g) = iterate(solve(g-1))
    params = ModelParams(c=0.5, d=8.2, alpha=1.1)
    model = params.in_degree_model()
    [full] = solve_r([params], model, pool_size=1000, generations=3, seed=9)
    [partial] = solve_r([params], model, pool_size=1000, generations=2, seed=9)
    [redo] = iterate_generation([partial.values], [params], model, final_generation_seed(9, 3))
    assert np.array_equal(redo, full.values)


def test_mean_converges_to_one_with_finite_variance_tail():
    # alpha=2.5 has finite variance, so the generation means obey a CLT
    params = ModelParams(c=0.5, d=3.0, alpha=2.5)
    model = params.in_degree_model()
    [result] = solve_r([params], model, pool_size=200_000, generations=12, seed=4)
    assert result.values.mean() == pytest.approx(1.0, abs=0.01)
    assert result.converged


def test_tail_index_preserved_from_in_degree_to_r():
    # moderate-size version of the index-preservation property
    params = ModelParams(c=0.5, d=8.2, alpha=1.5)
    model = params.in_degree_model()
    [result] = solve_r([params], model, pool_size=100_000, generations=15, seed=6)
    counts = model.sample(100_000, final_generation_seed(6, 15))
    r_fit = fit_tail_fraction(result.values, 0.01)
    n_fit = fit_tail_fraction(counts.astype(float), 0.01)
    assert abs(r_fit.alpha_ccdf - n_fit.alpha_ccdf) <= 2.0 * (r_fit.stderr + n_fit.stderr) + 0.25


def test_lower_bound_constant_cases():
    params = ModelParams(c=0.85, d=8.0, alpha=1.1)
    zero = lower_bound_samples(ConstantInDegree(0), params, 100, seed=0)
    assert np.allclose(zero, 0.15)
    eight = lower_bound_samples(ConstantInDegree(8), params, 100, seed=0)
    assert np.allclose(eight, 0.15 * (0.85 + 1.0))
    assert eight[0] == pytest.approx(0.2775, abs=1e-15)


def test_lower_bound_is_dominated_midsize():
    params = ModelParams(c=0.5, d=8.2, alpha=1.1)
    model = params.in_degree_model()
    [result] = solve_r([params], model, pool_size=50_000, generations=10, seed=12)
    bound = lower_bound_samples(model, params, 50_000, final_generation_seed(12, 10))
    # compare survival fractions on a shared grid above the median
    grid = np.quantile(bound, np.linspace(0.5, 0.999, 40))
    r_surv = 1.0 - np.searchsorted(np.sort(result.values), grid, side="left") / result.values.size
    b_surv = 1.0 - np.searchsorted(np.sort(bound), grid, side="left") / bound.size
    se = np.sqrt(b_surv * (1.0 - b_surv) / bound.size)
    assert np.all(r_surv >= b_surv - 2.0 * se)


def test_poisson_in_degree_model_accepted():
    params = ModelParams(c=0.5, d=8.2, alpha=1.1)
    [result] = solve_r([params], PoissonInDegree(8.2), pool_size=1000, generations=2, seed=1)
    assert result.values.min() >= 0.5


def test_diagnostics_csv_format(tmp_path):
    params = ModelParams(c=0.5, d=8.2, alpha=1.1)
    [result] = solve_r([params], ConstantInDegree(2), pool_size=1000, generations=2, seed=0)
    path = tmp_path / "diag.csv"
    save_diagnostics(result.diagnostics, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("generation,mean,ks,max")
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) > 0.0
