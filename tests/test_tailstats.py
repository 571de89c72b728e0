"""CCDF tables, tail-index fits, and log-offset measurement."""

import math

import numpy as np
import pytest

from prtail.errors import DegenerateFitError, ParameterError
from prtail.rng import stream
from prtail.rvmodel import TailSpec, tail_spec_for_mean
from prtail.samples import CHUNK_ROWS
from prtail.tailstats import (
    CcdfTable,
    ccdf,
    fit_tail_fraction,
    fit_tail_mle,
    log_ccdf_offset,
    save_ccdf,
    save_ccdf_loglog,
    save_tail_fit,
    x_min_for_top_fraction,
)

from models import sample_t


def _save_ccdf_reference(table, path):
    """save_ccdf as one write per row."""
    with open(path, "w") as fh:
        fh.write("x,p\n")
        for x, p in zip(table.x, table.p):
            fh.write(f"{float(x)!r},{float(p)!r}\n")


def _save_ccdf_loglog_reference(table, path):
    """save_ccdf_loglog as one write per row kept."""
    with open(path, "w") as fh:
        fh.write("# log10_x log10_p\n")
        for x, p in zip(table.x, table.p):
            if x > 0:
                fh.write(f"{math.log10(x)!r} {math.log10(p)!r}\n")


def _table(rows, nonpositive=()):
    """A CcdfTable of len(nonpositive) rows at the given x <= 0 values,
    then `rows` rows at positive x of widely varying magnitude."""
    rng = np.random.default_rng(rows)
    positive = np.sort(10.0 ** rng.uniform(-300, 300, rows))
    x = np.concatenate([nonpositive, positive])
    return CcdfTable(x=x, p=np.arange(x.size, 0, -1) / x.size, n_samples=x.size)


def test_ccdf_single_value():
    table = ccdf(np.array([5.0]))
    assert np.array_equal(table.x, [5.0])
    assert np.array_equal(table.p, [1.0])
    assert table.n_samples == 1


def test_ccdf_hand_example():
    table = ccdf(np.array([1.0, 2.0, 2.0, 4.0]))
    assert np.array_equal(table.x, [1.0, 2.0, 4.0])
    assert np.array_equal(table.p, [1.0, 0.75, 0.25])
    assert np.array_equal(table.cdf_at_points(), [0.25, 0.75, 1.0])


def test_ccdf_first_point_is_total_mass():
    rng = np.random.default_rng(0)
    table = ccdf(rng.random(1000))
    assert table.p[0] == 1.0
    assert np.all(np.diff(table.p) < 0)


def test_ccdf_table_invariants():
    with pytest.raises(ParameterError):
        CcdfTable(x=np.array([1.0, 1.0]), p=np.array([1.0, 0.5]), n_samples=2)
    with pytest.raises(ParameterError):
        CcdfTable(x=np.array([1.0, 2.0]), p=np.array([0.5, 1.0]), n_samples=2)
    with pytest.raises(ParameterError):
        CcdfTable(x=np.array([1.0, 2.0]), p=np.array([1.0, 0.0]), n_samples=2)


def test_quantile_on_hand_table():
    table = ccdf(np.array([1.0, 2.0, 2.0, 4.0]))
    assert table.quantile(0.2) == 1.0
    assert table.quantile(0.5) == 2.0
    assert table.quantile(0.8) == 4.0
    with pytest.raises(ParameterError):
        table.quantile(0.0)


def test_fit_frozen_hand_value():
    # four samples {1,2,4,8} above x_min=1: alpha = 4 / (6 ln 2)
    fit = fit_tail_mle(np.array([1.0, 2.0, 4.0, 8.0]), 1.0)
    expected = 4.0 / (6.0 * np.log(2.0))
    assert fit.alpha_ccdf == pytest.approx(0.9617966939259757, abs=1e-15)
    assert fit.alpha_ccdf == pytest.approx(expected, abs=1e-15)
    assert fit.n_tail == 4
    assert fit.stderr == pytest.approx(expected / 2.0)
    assert fit.density_exponent == pytest.approx(expected + 1.0)


def test_fit_ties_at_threshold_count_but_add_nothing():
    with_tie = fit_tail_mle(np.array([1.0, 1.0, 2.0, 4.0]), 1.0)
    assert with_tie.n_tail == 4
    assert with_tie.alpha_ccdf == pytest.approx(4.0 / (3.0 * np.log(2.0)))


def test_fit_degenerate_and_domain_errors():
    with pytest.raises(DegenerateFitError):
        fit_tail_mle(np.array([2.0, 2.0, 2.0]), 2.0)
    with pytest.raises(DegenerateFitError):
        fit_tail_mle(np.array([1.0, 1.0, 3.0]), 1.0)  # only one strictly above
    with pytest.raises(ParameterError):
        fit_tail_mle(np.array([1.0, 2.0]), 0.0)
    with pytest.raises(DegenerateFitError):
        fit_tail_mle(np.array([0.5, 0.7]), 1.0)  # nothing in the tail


def test_fit_fraction_with_zero_threshold_is_degenerate():
    # the top 10% of these values starts at 0: the data picked a
    # threshold no fit can use, while the explicit x_min=0 call above
    # stays a parameter error
    values = np.r_[np.zeros(95), np.arange(1.0, 6.0)]
    with pytest.raises(DegenerateFitError):
        fit_tail_fraction(values, 0.1)


def test_fit_scale_invariance_exact_for_binary_scaling():
    rng = np.random.default_rng(3)
    values = 1.0 + rng.pareto(1.5, 5000)
    base = fit_tail_mle(values, 1.0)
    scaled = fit_tail_mle(values * 4.0, 4.0)  # power of two: ratios are exact
    assert scaled.alpha_ccdf == base.alpha_ccdf


def test_fit_scale_invariance_general_factor():
    rng = np.random.default_rng(4)
    values = 1.0 + rng.pareto(1.1, 5000)
    base = fit_tail_mle(values, 1.0)
    scaled = fit_tail_mle(values * 3.7, 3.7)
    assert scaled.alpha_ccdf == pytest.approx(base.alpha_ccdf, rel=1e-12)


def test_x_min_for_top_fraction():
    values = np.arange(1.0, 11.0)
    assert x_min_for_top_fraction(values, 0.1) == 10.0
    assert x_min_for_top_fraction(values, 0.3) == 8.0
    assert x_min_for_top_fraction(values, 1.0) == 1.0
    with pytest.raises(ParameterError):
        x_min_for_top_fraction(values, 0.0)


def test_fit_consistency_coverage():
    # full-sample Hill on Pareto data is exact MLE; 3 standard errors
    # should cover the truth in nearly every replication
    alpha = 1.3
    spec = TailSpec(alpha=alpha, x_scale=1.0)
    hits = 0
    n = 10**4
    for seed in range(100):
        values = spec.sample(n, stream(seed, 77))
        fit = fit_tail_mle(values, 1.0)
        if abs(fit.alpha_ccdf - alpha) <= 3.0 * alpha / np.sqrt(n):
            hits += 1
    assert hits >= 95


def test_loglog_slope_of_pareto_ccdf_over_top_decade():
    # decade of x ending at the 99.99% quantile: high enough to be tail,
    # low enough that the regression has ~1000 points rather than the
    # handful of extreme order statistics above max/10
    samples = sample_t(tail_spec_for_mean(1.1, 8.2), 10**6, seed=21)
    table = ccdf(samples)
    x_hi = table.quantile(0.9999)
    band = (table.x >= x_hi / 10.0) & (table.x <= x_hi)
    slope = np.polyfit(np.log10(table.x[band]), np.log10(table.p[band]), 1)[0]
    assert -1.2 <= slope <= -1.0


def test_log_ccdf_offset_identity_is_zero():
    table = ccdf(sample_t(tail_spec_for_mean(1.1, 8.2), 10**5, seed=8))
    assert log_ccdf_offset(table, table) == 0.0


def test_log_ccdf_offset_detects_pure_vertical_shift():
    table = ccdf(sample_t(tail_spec_for_mean(1.1, 8.2), 10**5, seed=9))
    shifted = CcdfTable(x=table.x, p=table.p / 10.0, n_samples=table.n_samples)
    assert log_ccdf_offset(table, shifted) == pytest.approx(1.0, abs=1e-12)
    assert log_ccdf_offset(shifted, table) == pytest.approx(-1.0, abs=1e-12)


def test_log_ccdf_offset_disjoint_supports():
    a = CcdfTable(x=np.array([1.0, 2.0]), p=np.array([1.0, 0.5]), n_samples=2)
    b = CcdfTable(x=np.array([100.0, 200.0]), p=np.array([1.0, 0.5]), n_samples=2)
    with pytest.raises(ParameterError):
        log_ccdf_offset(a, b, quantile_band=(0.2, 0.4))


def test_save_ccdf_round_trip_text(tmp_path):
    table = ccdf(np.array([1.0, 2.0, 2.0, 4.0]))
    path = tmp_path / "ccdf.csv"
    save_ccdf(table, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,p"
    assert lines[1] == "1.0,1.0"
    assert lines[2] == "2.0,0.75"
    assert lines[3] == "4.0,0.25"


def test_save_ccdf_loglog_format(tmp_path):
    table = ccdf(np.array([1.0, 10.0, 10.0, 100.0]))
    path = tmp_path / "ccdf.loglog"
    save_ccdf_loglog(table, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# log10_x log10_p"
    cols = np.array([line.split() for line in lines[1:]], dtype=float)
    assert np.allclose(cols[:, 0], [0.0, 1.0, 2.0])
    assert np.allclose(cols[:, 1], np.log10([1.0, 0.75, 0.25]))


def test_save_tail_fit_json(tmp_path):
    import json

    fit = fit_tail_mle(np.array([1.0, 2.0, 4.0, 8.0]), 1.0)
    path = tmp_path / "fit.json"
    save_tail_fit(fit, path)
    payload = json.loads(path.read_text())
    assert set(payload) == {"x_min", "alpha_ccdf", "n_tail", "stderr", "density_exponent"}
    assert payload["n_tail"] == 4
    assert payload["alpha_ccdf"] == fit.alpha_ccdf


@pytest.mark.parametrize("rows", [1, CHUNK_ROWS, 2 * CHUNK_ROWS + 3])
def test_save_ccdf_bytes_match_reference(tmp_path, rows):
    table = _table(rows)
    save_ccdf(table, tmp_path / "new.csv")
    _save_ccdf_reference(table, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("rows", [1, CHUNK_ROWS, 2 * CHUNK_ROWS + 3])
def test_save_ccdf_loglog_bytes_match_reference(tmp_path, rows):
    # the x <= 0 rows are dropped, so `rows` lines are written
    table = _table(rows, nonpositive=[-2.5, -1e-300, 0.0])
    save_ccdf_loglog(table, tmp_path / "new.txt")
    _save_ccdf_loglog_reference(table, tmp_path / "ref.txt")
    assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "ref.txt").read_bytes()
