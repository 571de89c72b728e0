"""Heavy-tailed T families and the Poisson-mixed in-degree model."""

import numpy as np
import pytest
from scipy.integrate import quad

from prtail import rvmodel
from prtail.errors import ParameterError
from prtail.fixedpoint import ModelParams
from prtail.rng import stream
from prtail.rvmodel import (
    InDegreeModel,
    TailSpec,
    tail_spec_for_mean,
)
from prtail.samples import save_samples
from prtail.tailstats import fit_tail_fraction, fit_tail_mle, x_min_for_top_fraction

from models import sample_t


def _ccdf(spec, x):
    """Pareto CCDF (x/m)^(-alpha), 1 below the scale m."""
    return np.maximum(np.asarray(x, dtype=float) / spec.x_scale, 1.0) ** -spec.alpha


def test_pareto_scale_frozen_value():
    # alpha=1.1, mean 8.2: m = d(alpha-1)/alpha = 0.82/1.1
    assert tail_spec_for_mean(1.1, 8.2).x_scale == pytest.approx(0.7454545454545455, abs=1e-15)


def test_pareto_scale_realizes_mean_by_quadrature():
    alpha, d = 1.3, 5.0
    m = tail_spec_for_mean(alpha, d).x_scale
    mean, _ = quad(lambda x: x * alpha * m**alpha * x ** (-alpha - 1.0), m, np.inf)
    assert mean == pytest.approx(d, rel=1e-10)


# ModelParams takes its alpha rule from tail_spec_for_mean; at alpha 0
# the rule also keeps the scale's division by alpha from running
@pytest.mark.parametrize(
    "build, alpha",
    [pytest.param(tail_spec_for_mean, a, id=str(a)) for a in (1.0, 0.9, 0.5)]
    + [
        pytest.param(lambda a, d: ModelParams(c=0.5, d=d, alpha=a), a, id=f"ModelParams-{a}")
        for a in (1.0, 0.5, 0.0)
    ],
)
def test_pareto_scale_rejects_infinite_mean(build, alpha):
    with pytest.raises(ParameterError, match="finite mean"):
        build(alpha, 8.2)


def test_tail_spec_validation():
    with pytest.raises(ParameterError):
        TailSpec(alpha=1.0, x_scale=1.0)
    with pytest.raises(ParameterError):
        TailSpec(alpha=2.0, x_scale=0.0)


def test_mean_formula_matches_ccdf_integral():
    # E X = m + integral of the CCDF above m, for any nonnegative X >= m
    spec = tail_spec_for_mean(1.7, 4.0)
    tail_mass, _ = quad(lambda x: float(_ccdf(spec, x)), spec.x_scale, np.inf, limit=200)
    assert spec.x_scale + tail_mass == pytest.approx(4.0, rel=1e-9)


def test_sampling_inverts_ccdf():
    # x = sample(u) must satisfy ccdf(x) = u exactly (up to roundoff)
    spec = tail_spec_for_mean(1.1, 8.2)
    x = spec.sample(20000, np.random.default_rng(9))
    u = 1.0 - np.random.default_rng(9).random(20000)
    assert np.all(x >= spec.x_scale)
    assert np.allclose(_ccdf(spec, x), u, rtol=1e-9, atol=1e-12)


def test_hill_fit_recovers_alpha_on_large_pareto_sample():
    spec = tail_spec_for_mean(1.1, 8.2)
    t = sample_t(spec, 10**6, seed=1)
    fit = fit_tail_fraction(t, 0.1)
    assert 0.95 <= fit.alpha_ccdf <= 1.25


@pytest.mark.parametrize("alpha", [1.1, 1.5, 2.5])
def test_poisson_mixing_preserves_tail_index(alpha):
    # Same seed makes the in-degree counts ride on the identical T draws,
    # so above a shared threshold the two Hill estimates differ only by
    # the Poisson layer. Poisson(t)/t - 1 ~ t^(-1/2) perturbs the
    # effective threshold, which moves the estimate by O(alpha/sqrt(x_min)).
    spec = tail_spec_for_mean(alpha, 8.2)
    model = InDegreeModel(spec)
    n_samples = 10**6
    t = sample_t(spec, n_samples, seed=5)
    counts = model.sample(n_samples, seed=5).astype(float)
    x_min = x_min_for_top_fraction(t, 0.01)
    t_fit = fit_tail_mle(t, x_min)
    n_fit = fit_tail_mle(counts, x_min)
    width = 2.0 * (t_fit.stderr + n_fit.stderr) + alpha / np.sqrt(x_min)
    assert abs(t_fit.alpha_ccdf - n_fit.alpha_ccdf) <= width


def test_in_degree_mean_matches_t_mean_when_finite_variance():
    # E N(T) = E T; alpha > 2 gives a real CLT so 3 standard errors bound it
    alpha, d = 2.5, 8.2
    model = InDegreeModel(tail_spec_for_mean(alpha, d))
    counts = model.sample(200_000, seed=2)
    m = tail_spec_for_mean(alpha, d).x_scale
    var_t = alpha * m**2 / (alpha - 2.0) - d**2
    var_n = var_t + d  # Poisson mixing adds the mean
    se = np.sqrt(var_n / counts.size)
    assert abs(counts.mean() - d) <= 3.0 * se


def test_in_degree_counts_are_nonnegative_ints():
    counts = InDegreeModel(tail_spec_for_mean(1.1, 8.2)).sample(1000, seed=3)
    assert np.issubdtype(counts.dtype, np.integer)
    assert counts.min() >= 0


def test_in_degree_coupling_with_t_stream():
    # documented coupling: the T draws under the counts are sample_t's draws
    spec = tail_spec_for_mean(1.5, 8.2)
    t = sample_t(spec, 500, seed=11)
    counts = InDegreeModel(spec).sample(500, seed=11)
    replay = stream(11, 2).poisson(t)
    assert np.array_equal(counts, replay)


def test_sample_t_determinism_and_export(tmp_path):
    spec = tail_spec_for_mean(1.1, 8.2)
    a = sample_t(spec, 1000, seed=7)
    b = sample_t(spec, 1000, seed=7)
    assert np.array_equal(a, b)
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    save_samples(p1, a, "t", 7, {"alpha": spec.alpha})
    save_samples(p2, b, "t", 7, {"alpha": spec.alpha})
    assert p1.read_bytes() == p2.read_bytes()
    assert np.array_equal(np.loadtxt(p1, comments="#"), a)


def test_sample_t_validation():
    spec = tail_spec_for_mean(1.1, 8.2)
    with pytest.raises(ParameterError):
        sample_t(spec, 0, seed=0)
    with pytest.raises(ParameterError):
        sample_t(spec, 10, seed=-1)


@pytest.mark.parametrize("n", [1, 2**16 - 1, 2**16, 2**16 + 1, 3 * 2**16 + 7])
def test_block_draws_match_one_shot_draw(n):
    spec = tail_spec_for_mean(1.1, 8.2)
    # all of T at once on its stream, then the counts over all of it
    one_shot = stream(23, 2).poisson(sample_t(spec, n, 23))
    assert np.array_equal(InDegreeModel(spec).sample(n, 23), one_shot)
    buf = np.full(n, -1, dtype=np.int64)
    assert InDegreeModel(spec).sample(n, 23, out=buf) is buf
    assert np.array_equal(buf, one_shot)


@pytest.mark.parametrize("block", [1, 7, 1000])
def test_block_draws_are_exact_at_any_block_size(monkeypatch, block):
    model = InDegreeModel(tail_spec_for_mean(1.1, 8.2))
    whole = model.sample(5000, 31)
    monkeypatch.setattr(rvmodel, "_BLOCK", block)
    assert np.array_equal(model.sample(5000, 31), whole)


def test_block_draws_reject_a_wrong_out():
    model = InDegreeModel(tail_spec_for_mean(1.1, 8.2))
    for out in (np.empty(9, dtype=np.int64), np.empty(10), np.empty((10, 1), dtype=np.int64)):
        with pytest.raises(ParameterError):
            model.sample(10, 1, out=out)
