"""Closed-form tail factor and the numeric LST fixed point."""

import mpmath
import numpy as np
import pytest

from prtail.errors import NumericError, ParameterError
from prtail.fixedpoint import ModelParams
from prtail.rvmodel import TailSpec, tail_spec_for_mean
from prtail.theory import (
    factor,
    mean_from_lst,
    pareto_lst,
    second_moment_from_lst,
    second_moment_prediction,
    solve_lst,
)

from models import exponential_lst


def test_factor_frozen_value():
    # independent high-precision evaluation of c^a / (d^a - c^a d)
    # at (0.5, 8.2, 1.1) gives log10 y = -1.13012237337758706...
    y = factor(c=0.5, d=8.2, alpha=1.1)
    assert y == pytest.approx(0.07411013879486364, abs=1e-16)
    assert np.log10(y) == pytest.approx(-1.1301223733775871, abs=1e-13)


def test_factor_matches_direct_formula():
    c, d, alpha = 0.9, 8.2, 1.1
    y = factor(c=c, d=d, alpha=alpha)
    assert y == pytest.approx(c**alpha / (d**alpha - c**alpha * d), rel=1e-15)


def test_factor_increases_in_c_and_vanishes_at_zero():
    d, alpha = 8.2, 1.1
    c_grid = np.linspace(0.01, 0.99, 50)
    ys = np.array([factor(c=float(c), d=d, alpha=alpha) for c in c_grid])
    assert np.all(np.diff(ys) > 0)
    assert factor(c=1e-9, d=d, alpha=alpha) < 1e-9
    assert factor(c=0.9, d=d, alpha=alpha) > factor(c=0.5, d=d, alpha=alpha)


def test_factor_positive_across_validity_grid():
    for c in (0.05, 0.5, 0.95):
        for d in (1.01, 2.0, 8.2, 50.0):
            for alpha in (1.01, 1.1, 2.5, 4.0):
                y = factor(c=c, d=d, alpha=alpha)
                assert y > 0
                assert np.isfinite(np.log10(y))


def test_factor_domain_errors():
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
            factor(**bad)


@pytest.mark.parametrize(
    "c, d, alpha",
    [
        (1e-300, 8.2, 1.1),  # c^alpha underflows to 0
        (1e-7, 8.2, 50.0),  # c^alpha underflows to 0
        (0.5, 1e12, 40.0),  # d^alpha overflows
    ],
)
def test_factor_rejects_y_outside_the_doubles(c, d, alpha):
    ModelParams(c=c, d=d, alpha=alpha)  # admissible, and within the Poisson limit
    with pytest.raises(ParameterError, match="positive finite"):
        factor(c=c, d=d, alpha=alpha)


def test_exponential_lst_closed_form():
    f = exponential_lst(8.2)
    assert f(0.0) == 1.0
    assert f(1.0) == pytest.approx(1.0 / 9.2)
    assert np.allclose(f(np.array([0.5, 2.0])), [1.0 / 5.1, 1.0 / 17.4])


def test_pareto_lst_matches_quadrature_probes():
    from scipy.integrate import quad

    spec = tail_spec_for_mean(2.5, 3.0)
    f = pareto_lst(spec)
    alpha, m = spec.alpha, spec.x_scale
    for w in (1e-6, 1e-3, 0.1, 1.0, 10.0):
        direct, _ = quad(
            lambda x: alpha * m**alpha * x ** (-alpha - 1.0) * np.exp(-w * x), m, np.inf
        )
        assert f(w) == pytest.approx(direct, rel=1e-7)


def test_pareto_lst_domain():
    spec = tail_spec_for_mean(2.5, 3.0)
    f = pareto_lst(spec)
    for bad in (-0.1, np.nan, np.inf, np.array([0.5, np.nan])):
        with pytest.raises(ParameterError):
            f(bad)


def _pareto_lst_mpmath(alpha, x_scale, w):
    z = mpmath.mpf(x_scale) * mpmath.mpf(w)
    return alpha * z**alpha * mpmath.gammainc(-alpha, z)


@pytest.mark.parametrize("alpha", [1.01, 1.1, 1.5, 2.0, 2.5, 3.0, 4.0])
def test_pareto_lst_matches_mpmath(alpha):
    # integer alpha starts the recurrence from exp1, the others from
    # gammaincc; 1 - f near 0 carries the s^alpha term the tail rests on
    spec = tail_spec_for_mean(alpha, 8.2)
    f = pareto_lst(spec)
    w = np.concatenate([np.geomspace(1e-12, 16.0, 57), [100.0, 1e3]])
    got = f(w)
    with mpmath.workdps(40):
        ref = [_pareto_lst_mpmath(alpha, spec.x_scale, v) for v in w]
        assert max(abs(float(g - r)) for g, r in zip(got, ref)) <= 1e-12
        for v in (1e-12, 1e-10):
            one_minus = float(1 - _pareto_lst_mpmath(alpha, spec.x_scale, v))
            assert 1.0 - f(v) == pytest.approx(one_minus, rel=1e-3)


@pytest.mark.filterwarnings("error")
def test_pareto_lst_shapes_and_extremes():
    # at alpha = 1.9 the recurrence alone gives 1 - 1.1e-16 at w -> 0
    for alpha in (1.01, 1.9, 2.0, 2.5):
        f = pareto_lst(tail_spec_for_mean(alpha, 8.2))
        assert f(0.0) == 1.0
        assert isinstance(f(0.5), float)
        out = f(np.array([[0.0, 0.5], [1.0, 2.0]]))
        assert isinstance(out, np.ndarray) and out.shape == (2, 2)
        assert out[0, 0] == 1.0
        # no overflow or warning at either end of the double range
        assert f(np.array([1e-320, 1e-300, 1e300])) == pytest.approx([1.0, 1.0, 0.0], abs=1e-15)


@pytest.mark.parametrize("c", [0.1, 0.5, 0.85, 0.9])
def test_lst_solves_to_normalized_mean_one_transform(c):
    params = ModelParams(c=c, d=8.2, alpha=1.1)
    grid = solve_lst(params, exponential_lst(8.2))
    # order-0 shadow of complete monotonicity plus normalization
    assert np.all(grid.r > 0)
    assert np.all(grid.r <= 1)
    assert grid.r[0] == pytest.approx(1.0, abs=1e-5)
    assert abs(mean_from_lst(grid) - 1.0) <= 1e-4


def test_lst_monotone_and_convex_shadows():
    # orders 1-2 of complete monotonicity on the solved grid. The
    # order-2 check starts at s = 1e-4: below that the signal
    # eta2*s*ds drowns in 1e-16/ds cancellation noise and in the kink
    # where the child argument (c/d)s crosses the grid floor. That
    # seam kink also echoes upward through the recursion at spacings
    # (d/c)^k with ~1e-5 amplitude on the default grid, hence the
    # loose bound here; the deep-grid test below is strict because
    # its echoes decay away before reaching 1e-4.
    for c in (0.5, 0.9):
        grid = solve_lst(ModelParams(c=c, d=8.2, alpha=1.1), exponential_lst(8.2))
        assert np.all(np.diff(grid.r) <= 0)
        slopes = np.diff(grid.r) / np.diff(grid.s)
        keep = grid.s[1:-1] >= 1e-4
        assert np.diff(slopes)[keep].min() >= -1e-4
        deep = solve_lst(ModelParams(c=c, d=8.2, alpha=1.1), exponential_lst(8.2), s_min=1e-8)
        assert np.all(np.diff(deep.r) <= 0)
        deep_slopes = np.diff(deep.r) / np.diff(deep.s)
        deep_keep = deep.s[1:-1] >= 1e-4
        assert np.diff(deep_slopes)[deep_keep].min() >= -1e-12


def test_lst_convex_shadow_with_pareto_oracle():
    spec = tail_spec_for_mean(2.5, 3.0)
    grid = solve_lst(ModelParams(c=0.5, d=3.0, alpha=2.5), pareto_lst(spec), s_min=1e-8)
    assert np.all(np.diff(grid.r) <= 0)
    slopes = np.diff(grid.r) / np.diff(grid.s)
    keep = grid.s[1:-1] >= 1e-4
    assert np.diff(slopes)[keep].min() >= -1e-12


def test_lst_mean_accuracy_on_deep_grid():
    params = ModelParams(c=0.85, d=8.0, alpha=1.1)
    grid = solve_lst(params, exponential_lst(8.0), s_min=1e-8)
    assert abs(mean_from_lst(grid) - 1.0) <= 1e-6


def test_second_moment_prediction_hand_value():
    # differentiate the transform equation twice at 0:
    # eta2 = (mu2 c^2/d^2 + 1 - c^2) / (1 - c^2/d); exponential mu2 = 2d^2
    params = ModelParams(c=0.5, d=8.2, alpha=1.1)
    mu2 = 2.0 * 8.2**2
    expected = (mu2 * 0.25 / 8.2**2 + 1.0 - 0.25) / (1.0 - 0.25 / 8.2)
    assert second_moment_prediction(params, mu2) == pytest.approx(expected, rel=1e-15)
    assert expected == pytest.approx(1.25 / (1.0 - 0.25 / 8.2), rel=1e-12)


@pytest.mark.parametrize("c", [0.1, 0.5, 0.9])
def test_second_moment_from_grid_matches_derivation_exponential(c):
    d = 8.2
    params = ModelParams(c=c, d=d, alpha=1.1)
    grid = solve_lst(params, exponential_lst(d), s_min=1e-8)
    eta2 = second_moment_from_lst(grid)
    predicted = second_moment_prediction(params, 2.0 * d**2)
    assert eta2 == pytest.approx(predicted, rel=1e-3)


def test_second_moment_pareto_finite_variance_case():
    alpha, d = 2.5, 3.0
    spec = tail_spec_for_mean(alpha, d)
    params = ModelParams(c=0.5, d=d, alpha=alpha)
    grid = solve_lst(params, pareto_lst(spec), s_min=1e-8)
    mu2 = alpha * spec.x_scale**2 / (alpha - 2.0)
    predicted = second_moment_prediction(params, mu2)
    # the relative error, -1.7e-3, comes from MOMENT_WINDOW's linear
    # fit, which cannot remove the s^(alpha-2) term at alpha = 2.5; the
    # transform is exact to 1e-14
    assert second_moment_from_lst(grid) == pytest.approx(predicted, rel=0.01)
    assert abs(mean_from_lst(grid) - 1.0) <= 1e-6


def test_solve_lst_reports_non_convergence():
    params = ModelParams(c=0.9, d=8.2, alpha=1.1)
    with pytest.raises(NumericError):
        solve_lst(params, exponential_lst(8.2), max_sweeps=2)


def test_solve_lst_sweep_count_is_modest():
    params = ModelParams(c=0.9, d=8.2, alpha=1.1)
    grid = solve_lst(params, exponential_lst(8.2))
    assert grid.sweeps <= 50
