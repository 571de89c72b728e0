"""Acceptance gate: one test per release criterion.

Each test prints a single PASS/FAIL line (run with -s to see them all;
failed criteria show theirs in the failure output). Criteria that are
statistically unattainable at the stated sample sizes are left failing
on purpose, with the mechanism spelled out in the failure message; see
the project notes for the full numbers. The model-run criteria share
one pinned master seed so every number below is reproducible.

Heads-up on the honest-red criteria: at tail index 1.1 more than a
third of E[N] sits in events too rare to appear in 10^6 draws, so each
generation's sample count mean typically reads ~6.3 instead of 8.2.
The pool level therefore settles near (1-c)/(1-c*nbar/d) < 1 instead
of 1, deflating sample means and shifting the R-vs-N comparison for
the larger damping values. E[R] = 1 holds exactly in expectation; it
is realized in finite pools only through rare explosive draws.
"""

import math
import os
import time

import numpy as np
import pytest

from prtail.errors import DegenerateFitError, ParameterError
from prtail.fixedpoint import ModelParams, final_generation_seed, solve_r
from prtail.graph import load_edge_list, pagerank, parse_edge_list
from prtail.growingnet import GrowthParams, generate
from prtail.rng import stream
from prtail.rvmodel import InDegreeModel, tail_spec_for_mean
from prtail.tailstats import ccdf, fit_tail_fraction, fit_tail_mle, log_ccdf_offset
from prtail.theory import factor, mean_from_lst, solve_lst

from models import exponential_lst, sample_t

SEED = 7
POOL = 10**6
GENERATIONS = 30

STANFORD_PATHS = (
    os.environ.get("PRTAIL_STANFORD", ""),
    "data/web-Stanford.txt",
    "web-Stanford.txt",
)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def _combined_band(fit_a, fit_b) -> float:
    return 2.0 * math.sqrt(fit_a.stderr**2 + fit_b.stderr**2)


@pytest.fixture(scope="module")
def run_c085():
    """Model run for the c=0.85, d=8 criterion, with its wall time."""
    t0 = time.perf_counter()
    params = ModelParams(c=0.85, d=8.0, alpha=1.1)
    model = params.in_degree_model()
    [res] = solve_r([params], model, pool_size=POOL, generations=GENERATIONS, seed=SEED)
    n_counts = model.sample(POOL, final_generation_seed(SEED, GENERATIONS))
    return params, res, n_counts, time.perf_counter() - t0


@pytest.fixture(scope="module")
def runs_d82():
    """Model runs for c in {0.1, 0.5, 0.9} at d=8.2, with total wall time.

    One grid solve: each c's pool is bit for bit that of its own solve
    (tests/test_fixedpoint.py), and the three share one N sample."""
    t0 = time.perf_counter()
    grid = [ModelParams(c=c, d=8.2, alpha=1.1) for c in (0.1, 0.5, 0.9)]
    model = grid[0].in_degree_model()
    results = solve_r(grid, model, pool_size=POOL, generations=GENERATIONS, seed=SEED)
    n_counts = model.sample(POOL, final_generation_seed(SEED, GENERATIONS))
    runs = {params.c: (params, res, n_counts) for params, res in zip(grid, results)}
    return runs, time.perf_counter() - t0


def test_criterion_1_poisson_mixing_preserves_tail_index():
    t0 = time.perf_counter()
    worst = 0.0
    for alpha in (1.1, 1.5):
        spec = tail_spec_for_mean(alpha, 8.2)
        t_fit = fit_tail_fraction(sample_t(spec, POOL, SEED), 0.01)
        n_fit = fit_tail_fraction(InDegreeModel(tail=spec).sample(POOL, SEED).astype(float), 0.01)
        diff = abs(t_fit.alpha_ccdf - n_fit.alpha_ccdf)
        band = _combined_band(t_fit, n_fit)
        worst = max(worst, diff / band)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1.0 and elapsed < 30.0
    _report(1, "mixing preserves tail index", ok,
            f"worst |diff|/band = {worst:.2f}, {elapsed:.1f}s")
    assert worst <= 1.0
    assert elapsed < 30.0


def test_criterion_2_pagerank_tail_matches_in_degree(run_c085):
    params, res, n_counts, elapsed = run_c085
    r_fit = fit_tail_fraction(res.values, 0.01)
    n_fit = fit_tail_fraction(n_counts.astype(float), 0.01)
    diff = abs(r_fit.alpha_ccdf - n_fit.alpha_ccdf)
    band = _combined_band(r_fit, n_fit)
    abs_ok = abs(r_fit.alpha_ccdf - params.alpha) <= 0.15
    rel_ok = diff <= band
    ok = abs_ok and rel_ok and elapsed < 300.0
    _report(2, "R tail index", ok,
            f"hill_R = {r_fit.alpha_ccdf:.4f} (|.-1.1| <= 0.15: {abs_ok}), "
            f"|R-N| = {diff:.4f} vs band {band:.4f}: {rel_ok}, {elapsed:.0f}s")
    assert abs_ok
    assert elapsed < 300.0
    assert rel_ok, (
        f"R and N tail fits differ by {diff:.3f}, band is {band:.3f}: the finite pool "
        "deflates the level of R between generations (count sample means typically read "
        "~6.3 against an expectation of 8.2 at this tail weight), bending the fitted "
        "index by about -0.1. 0 of 40 calibration seeds pass this clause."
    )


def test_criterion_3_multiplicative_factor(runs_d82):
    runs, elapsed = runs_d82
    diffs = {}
    for c, (params, res, n_counts) in runs.items():
        observed = log_ccdf_offset(ccdf(res.values), ccdf(n_counts))
        predicted = math.log10(factor(params.c, params.d, params.alpha))
        diffs[c] = observed - predicted
    ok_01 = abs(diffs[0.1]) <= 0.2
    ok_05 = abs(diffs[0.5]) <= 0.2
    ok_09 = abs(diffs[0.9]) <= 0.2
    ok = ok_01 and ok_05 and ok_09 and elapsed < 900.0
    detail = ", ".join(f"c={c}: {d:+.4f}" for c, d in sorted(diffs.items()))
    _report(3, "log10 CCDF offset vs prediction", ok, f"{detail}, {elapsed:.0f}s")
    assert ok_01
    assert ok_05
    assert elapsed < 900.0
    assert ok_09, (
        f"offset difference at c=0.9 is {diffs[0.9]:+.3f}, band is +/-0.2: the pool level "
        "settles near (1-c)/(1-c*nbar/d) ~ 0.35 at c=0.9 for typical count draws, which "
        "shifts the R tail constant by ~alpha*log10(level). 0 of 40 calibration seeds "
        "pass at c=0.9 (33/40 pass at c=0.1, 16/40 at c=0.5)."
    )


def test_criterion_4_mean_fixed_point(runs_d82):
    runs, _ = runs_d82
    means = {c: float(res.values.mean()) for c, (_, res, _) in runs.items()}
    lst_dev = 0.0
    for c in (0.1, 0.5, 0.9):
        grid = solve_lst(ModelParams(c=c, d=8.2, alpha=1.1), exponential_lst(8.2))
        lst_dev = max(lst_dev, abs(mean_from_lst(grid) - 1.0))
    lst_ok = lst_dev <= 1e-4
    mean_ok = {c: abs(m - 1.0) <= 0.03 for c, m in means.items()}
    ok = all(mean_ok.values()) and lst_ok
    detail = ", ".join(f"c={c}: mean={m:.4f}" for c, m in sorted(means.items()))
    _report(4, "E R = 1", ok, f"{detail}; LST |mean-1| = {lst_dev:.1e}")
    assert lst_ok
    assert mean_ok[0.1]
    assert mean_ok[0.5] and mean_ok[0.9], (
        f"sample means {means[0.5]:.3f} (c=0.5) and {means[0.9]:.3f} (c=0.9) miss 1 by far "
        "more than 0.03: with tail index 1.1, E[R] = 1 is carried by draws too rare for a "
        "10^6 pool, so the sample mean concentrates below 1 (around 0.8 and 0.35). The LST "
        "mean (exact transform arithmetic, no sampling) does give 1 to 1e-4. Calibration "
        "over 40 seeds: 25 pass at c=0.1, 1 at c=0.5, 0 at c=0.9."
    )


def test_criterion_5_floor_and_dominance(run_c085, runs_d82):
    runs, _ = runs_d82
    all_runs = dict(runs)
    all_runs[0.85] = run_c085[:3]
    worst_violation = 0.0
    for c, (params, res, n_counts) in all_runs.items():
        assert res.values.min() >= (1.0 - params.c), f"floor violated at c={c}"
        bound = (1.0 - params.c) * ((params.c / params.d) * n_counts + 1.0)
        grid = np.quantile(bound, np.linspace(0.5, 0.9999, 200))
        surv_r = (res.values[:, None] > grid).mean(axis=0)
        surv_b = (bound[:, None] > grid).mean(axis=0)
        se = np.sqrt(surv_b * (1.0 - surv_b) / bound.size)
        worst_violation = max(worst_violation, float((surv_b - 2.0 * se - surv_r).max()))
    ok = worst_violation <= 0.0
    _report(5, "floor and stochastic dominance", ok,
            f"min R >= 1-c exact on 4 runs; worst dominance violation {worst_violation:.2e}")
    assert ok


def test_criterion_6_pagerank_matches_direct_solve():
    t0 = time.perf_counter()
    worst = 0.0
    rng = stream(SEED, 0)
    for trial in range(100):
        n = int(rng.integers(2, 51))
        m = int(rng.integers(1, 4 * n))
        src = rng.integers(0, n, m)
        dst = rng.integers(0, n, m)
        lines = [f"{u} {v}" for u, v in zip(src, dst)]
        g = parse_edge_list(lines, keep_duplicates=True)
        dangling = "redistribute" if trial % 2 == 0 else "drop"
        pv = pagerank(g, c=0.85, tol=1e-14, dangling=dangling)
        p_matrix = np.zeros((g.n, g.n))
        out_deg = g.out_degree
        for u, v in zip(g.src, g.dst):
            p_matrix[v, u] += 1.0 / out_deg[u]
        if dangling == "redistribute":
            p_matrix[:, out_deg == 0] = 1.0 / g.n
        solved = np.linalg.solve(np.eye(g.n) - 0.85 * p_matrix, (1.0 - 0.85) * np.ones(g.n))
        worst = max(worst, float(np.abs(pv.values - solved).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    _report(6, "power iteration vs direct solve", ok,
            f"worst max-norm {worst:.1e} over 100 graphs, {elapsed:.1f}s")
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_criterion_7_stanford_web_reproduction():
    path = next((p for p in STANFORD_PATHS if p and os.path.exists(p)), None)
    if path is None:
        _report(7, "Stanford web graph", True, "SKIP: dataset file not present")
        pytest.skip("Stanford web dataset not present")
    t0 = time.perf_counter()
    g = load_edge_list(path)
    assert g.n == 281903
    assert 2.2e6 <= g.m <= 2.4e6
    mean_out = g.m / g.n
    assert abs(mean_out - 8.2) <= 0.1
    fits = {"in-degree": fit_tail_fraction(g.in_degree.astype(float), 0.1).alpha_ccdf}
    for c in (0.1, 0.5, 0.9):
        pv = pagerank(g, c=c)
        fits[f"pagerank c={c}"] = fit_tail_fraction(pv.values, 0.1).alpha_ccdf
    elapsed = time.perf_counter() - t0
    ok = all(1.0 <= a <= 1.2 for a in fits.values()) and elapsed < 300.0
    detail = ", ".join(f"{k}: {v:.3f}" for k, v in fits.items())
    _report(7, "Stanford web graph", ok, f"{detail}, {elapsed:.0f}s")
    assert all(1.0 <= a <= 1.2 for a in fits.values())
    assert elapsed < 300.0


def test_criterion_8_growing_network():
    t0 = time.perf_counter()
    g = generate(GrowthParams(beta=0.2, d=8, n_final=50000, seed=SEED))
    gen_elapsed = time.perf_counter() - t0
    gen_ok = gen_elapsed < 60.0
    out_ok = bool(np.all(g.out_degree == 8))

    table = ccdf(g.in_degree.astype(float))
    hi = table.quantile(0.9999)
    grid = np.geomspace(hi / 10.0, hi, 30)
    logx = np.log10(grid)
    logp = table.log_interp(grid)
    slope, intercept = np.polyfit(logx, logp, 1)
    resid = float(np.abs(logp - (slope * logx + intercept)).max())
    linear_ok = resid <= 0.2

    hills = {}
    degenerate = {0.0: 0, 0.2: 0, 0.5: 0}
    for beta in (0.0, 0.2, 0.5):
        vals = []
        for seed in range(20):
            net = generate(GrowthParams(beta=beta, d=8, n_final=50000, seed=seed))
            try:
                vals.append(fit_tail_fraction(net.in_degree.astype(float), 0.1).alpha_ccdf)
            except (DegenerateFitError, ParameterError):
                degenerate[beta] += 1
        hills[beta] = float(np.mean(vals)) if vals else None

    mono_02_05 = hills[0.2] is not None and hills[0.5] is not None and hills[0.2] <= hills[0.5]
    beta0_ok = hills[0.0] is not None and hills[0.0] <= hills[0.2]
    ok = gen_ok and out_ok and linear_ok and mono_02_05 and beta0_ok
    _report(8, "growing network", ok,
            f"gen {gen_elapsed:.1f}s, out-degree == d: {out_ok}, top-decade max|resid| = "
            f"{resid:.3f}, hill means {hills}, degenerate fits {degenerate}")
    assert gen_ok
    assert out_ok
    assert linear_ok
    assert mono_02_05
    assert beta0_ok, (
        "no Hill index exists at beta=0: from an edgeless start, purely degree-driven "
        "attachment can never reach a node outside the already-linked set, so every "
        "grower links to all 8 initial nodes. The in-degree distribution is then two "
        f"atoms (8 nodes at n-d, the rest at <= 1) and all {degenerate[0.0]}/20 seed "
        "fits are degenerate; the top-10% threshold lands on the zero atom. The index "
        "is non-decreasing where defined: "
        f"hill(0.2) = {hills[0.2]:.3f} <= hill(0.5) = {hills[0.5]:.3f}."
    )


def test_criterion_9_estimator_sanity():
    samples = np.array([1.0, 2.0, 4.0, 8.0])
    fit = fit_tail_mle(samples, 1.0)
    expected = 4.0 / (6.0 * math.log(2.0))
    exact_ok = abs(fit.alpha_ccdf - expected) <= 1e-9
    scaled = fit_tail_mle(samples * 3.0, 3.0)
    scale_ok = scaled.alpha_ccdf == fit.alpha_ccdf
    ok = exact_ok and scale_ok
    _report(9, "estimator sanity", ok,
            f"alpha = {fit.alpha_ccdf:.10f} vs 4/(6 ln 2), scale-invariant: {scale_ok}")
    assert exact_ok
    assert scale_ok
