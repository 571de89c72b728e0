"""CCDF tables, tail-index fits, and log-offset measurement."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from prtail.errors import DegenerateFitError, ParameterError
from prtail.rng import stream
from prtail.rvmodel import TailSpec, tail_spec_for_mean
from prtail.samples import CHUNK_ROWS
from prtail.tailstats import (
    ROWS_PER_DECADE,
    CcdfTable,
    ccdf,
    fit_tail_fraction,
    fit_tail_mle,
    log_ccdf_offset,
    save_ccdf,
    save_ccdf_loglog,
    save_tail_fit,
    thin_ccdf,
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


def _thin_reference(table):
    """thin_ccdf as a row loop over math.log10 cells."""

    def cells(x, p):
        return (math.floor(ROWS_PER_DECADE * math.log10(x)) if x > 0 else -math.inf,
                math.floor(ROWS_PER_DECADE * math.log10(p)))

    rows = _rows(table)
    kept = [rows[0]]
    for previous, row in zip(rows, rows[1:-1]):
        if cells(*row) != cells(*previous):
            kept.append(row)
    if len(rows) > 1:
        kept.append(rows[-1])
    return kept


def _rows(table):
    return list(zip(table.x.tolist(), table.p.tolist()))


def _table(rows, nonpositive=()):
    """A CcdfTable of len(nonpositive) rows at the given x <= 0 values,
    then `rows` rows at positive x of widely varying magnitude."""
    rng = np.random.default_rng(rows)
    positive = np.sort(10.0 ** rng.uniform(-300, 300, rows))
    x = np.concatenate([nonpositive, positive])
    return CcdfTable(x=x, p=np.arange(x.size, 0, -1) / x.size)


def test_ccdf_single_value():
    table = ccdf(np.array([5.0]))
    assert np.array_equal(table.x, [5.0])
    assert np.array_equal(table.p, [1.0])


def test_ccdf_hand_example():
    table = ccdf(np.array([1.0, 2.0, 2.0, 4.0]))
    assert np.array_equal(table.x, [1.0, 2.0, 4.0])
    assert np.array_equal(table.p, [1.0, 0.75, 0.25])
    # the CDF reaches 0.25 at x = 1, 0.75 at x = 2 and 1 at x = 4
    assert table.quantile(0.25) == 1.0
    assert table.quantile(np.nextafter(0.25, 1.0)) == 2.0
    assert table.quantile(0.75) == 2.0
    assert table.quantile(np.nextafter(0.75, 1.0)) == 4.0


def test_ccdf_first_point_is_total_mass():
    rng = np.random.default_rng(0)
    table = ccdf(rng.random(1000))
    assert table.p[0] == 1.0
    assert np.all(np.diff(table.p) < 0)


def _ccdf_reference(values):
    """ccdf through np.unique's counts, summed from the top."""
    values = np.asarray(values, dtype=float)
    x, counts = np.unique(values, return_counts=True)
    return x, counts[::-1].cumsum()[::-1] / values.size


@pytest.mark.parametrize(
    "values",
    [
        [5.0],
        [3.0, 3.0, 3.0],
        [0.0, -0.0, 1.0, 0.0, 1.0],
        [-2.0, 7.0, -2.0, 0.0, -1.5, 7.0, 0.0, 7.0],
        np.round(np.random.default_rng(3).standard_normal(10_000), 1),
        np.random.default_rng(4).pareto(1.1, 10_000),
    ],
)
def test_ccdf_matches_unique_counts(values):
    # the same doubles, down to the sign of a zero
    table = ccdf(values)
    x, p = _ccdf_reference(values)
    assert table.x.tobytes() == x.tobytes()
    assert table.p.tobytes() == p.tobytes()


def test_ccdf_rejects_nan():
    with pytest.raises(ParameterError, match="NaN"):
        ccdf(np.array([1.0, np.nan, 2.0]))


def _log_interp_reference(table, x_grid):
    """log_interp over every positive row of the table, the rows picked
    by a mask rather than by a search for the first positive x."""
    keep = table.x > 0
    return np.interp(np.log10(x_grid), np.log10(table.x[keep]), np.log10(table.p[keep]))


def test_log_interp_matches_the_full_table():
    rng = np.random.default_rng(5)
    # an atom at 0 and a negative row, then a heavy tail with ties
    table = ccdf(np.concatenate([[0.0, 0.0, -1.0], np.round(1.0 + rng.pareto(1.1, 10_000), 2)]))
    x = table.x[table.x > 0]
    grids = [
        np.geomspace(x[10], x[-10], 50),
        x[[5, 6, 100, 1000]],
        x[[0, -1]],
        x[-1:],
        x[:1],
        np.array([x[0] / 2, x[-1] * 2]),
        np.nextafter(x[[3, 50, -2]], np.inf),
        np.nextafter(x[[3, 50, -2]], -np.inf),
        np.geomspace(x[-10], x[10], 7),
        np.empty(0),
    ]
    for grid in grids:
        assert table.log_interp(grid).tobytes() == _log_interp_reference(table, grid).tobytes()


def test_log_interp_matches_where_rows_share_a_log10():
    # adjacent doubles near 10^3: about nine of them round onto each log10
    x = 1000.0 + np.arange(40) * np.spacing(1000.0)
    table = CcdfTable(x=x, p=np.arange(40, 0, -1) / 40)
    assert np.unique(np.log10(x)).size < 10
    for lo in range(0, 40, 3):
        for hi in range(lo, 40, 4):
            grid = x[[lo, hi]]
            assert table.log_interp(grid).tobytes() == _log_interp_reference(table, grid).tobytes()


def test_ccdf_table_invariants():
    with pytest.raises(ParameterError):
        CcdfTable(x=np.array([1.0, 1.0]), p=np.array([1.0, 0.5]))
    with pytest.raises(ParameterError):
        CcdfTable(x=np.array([1.0, 2.0]), p=np.array([0.5, 1.0]))
    with pytest.raises(ParameterError):
        CcdfTable(x=np.array([1.0, 2.0]), p=np.array([1.0, 0.0]))


@pytest.mark.parametrize(
    "x, p",
    [
        ([1.0, np.nan], [1.0, 0.5]),
        ([np.nan, 1.0], [1.0, 0.5]),
        ([np.nan], [1.0]),
        ([1.0, 2.0], [np.nan, 0.5]),
        ([1.0, 2.0], [1.0, np.nan]),
        ([1.0], [np.nan]),
    ],
)
def test_ccdf_table_rejects_nan(x, p):
    with pytest.raises(ParameterError):
        CcdfTable(x=np.array(x), p=np.array(p))


def _quantile_reference(table, level):
    """quantile as np.searchsorted over the whole CDF column."""
    cdf = 1.0 - np.append(table.p[1:], 0.0)
    idx = int(np.searchsorted(cdf, level, side="left"))
    return float(table.x[min(idx, table.size - 1)])


def _quantile_tables():
    rng = np.random.default_rng(6)
    yield ccdf([5.0])
    yield ccdf([1.0, 2.0, 2.0, 4.0])
    # equal p on adjacent rows, so equal CDF values
    yield CcdfTable(x=np.arange(1.0, 6.0), p=np.array([1.0, 0.5, 0.5, 0.5, 0.25]))
    yield CcdfTable(x=np.array([1.0, 2.0]), p=np.array([0.5, 0.5]))
    yield ccdf(np.round(rng.standard_normal(2000), 1))
    yield ccdf(rng.pareto(1.1, 2000))
    for size in (1, 2, 3, 10, 100):
        yield CcdfTable(x=np.cumsum(rng.random(size) + 0.1), p=np.sort(rng.random(size))[::-1] * 0.9 + 0.05)


def test_quantile_matches_searchsorted_over_the_cdf():
    for table in _quantile_tables():
        # every CDF value, both neighbouring doubles, and the band's levels
        cdf = 1.0 - np.append(table.p[1:], 0.0)
        levels = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0), [0.5, 0.99, 0.9999]])
        for level in levels[(levels > 0) & (levels < 1)].tolist():
            assert table.quantile(level) == _quantile_reference(table, level), (table, level)


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
    shifted = CcdfTable(x=table.x, p=table.p / 10.0)
    assert log_ccdf_offset(table, shifted) == pytest.approx(1.0, abs=1e-12)
    assert log_ccdf_offset(shifted, table) == pytest.approx(-1.0, abs=1e-12)


def test_log_ccdf_offset_disjoint_supports():
    a = CcdfTable(x=np.array([1.0, 2.0]), p=np.array([1.0, 0.5]))
    b = CcdfTable(x=np.array([100.0, 200.0]), p=np.array([1.0, 0.5]))
    with pytest.raises(ParameterError):
        log_ccdf_offset(a, b)


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


def test_save_tail_fit_bytes_match_reference(tmp_path):
    fit = fit_tail_mle(np.array([0.1, 0.3, 7.0, 1e300]), 0.1)
    save_tail_fit(fit, tmp_path / "new.json")
    with open(tmp_path / "ref.json", "w") as fh:
        payload = {
            "alpha_ccdf": fit.alpha_ccdf,
            "density_exponent": fit.density_exponent,
            "n_tail": fit.n_tail,
            "stderr": fit.stderr,
            "x_min": fit.x_min,
        }
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "ref.json").read_bytes()


def test_save_tail_fit_json(tmp_path):
    fit = fit_tail_mle(np.array([1.0, 2.0, 4.0, 8.0]), 1.0)
    path = tmp_path / "fit.json"
    save_tail_fit(fit, path)
    payload = json.loads(path.read_text())
    assert set(payload) == {"x_min", "alpha_ccdf", "n_tail", "stderr", "density_exponent"}
    assert payload["n_tail"] == 4
    assert payload["alpha_ccdf"] == fit.alpha_ccdf


# a CcdfTable has at least one row; its log-log file may have none
@pytest.mark.parametrize("rows", [1, CHUNK_ROWS, 2 * CHUNK_ROWS + 3])
def test_save_ccdf_bytes_match_reference(tmp_path, rows):
    table = _table(rows)
    save_ccdf(table, tmp_path / "new.csv")
    _save_ccdf_reference(table, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("rows", [0, 1, CHUNK_ROWS, 2 * CHUNK_ROWS + 3])
def test_save_ccdf_loglog_bytes_match_reference(tmp_path, rows):
    # the x <= 0 rows are dropped, so `rows` lines are written
    table = _table(rows, nonpositive=[-2.5, -1e-300, 0.0])
    save_ccdf_loglog(table, tmp_path / "new.txt")
    _save_ccdf_loglog_reference(table, tmp_path / "ref.txt")
    assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "ref.txt").read_bytes()


def test_thin_ccdf_keeps_one_and_two_row_tables():
    one = CcdfTable(x=np.array([5.0]), p=np.array([1.0]))
    assert _rows(thin_ccdf(one)) == [(5.0, 1.0)]
    # both rows share one cell, and both are kept: first and last
    two = CcdfTable(x=np.array([1.0, 1.001]), p=np.array([1.0, 1.0]))
    assert _rows(thin_ccdf(two)) == [(1.0, 1.0), (1.001, 1.0)]


def test_thin_ccdf_keeps_exact_p_of_tied_samples():
    rng = np.random.default_rng(11)
    values = np.floor(10.0 ** rng.uniform(0, 4, 50_000))  # integers, heavily tied at the bottom
    table = ccdf(values)
    thinned = thin_ccdf(table)
    assert thinned.size < table.size
    at_least = values.size - np.searchsorted(np.sort(values), thinned.x, side="left")
    assert np.array_equal(thinned.p, at_least / values.size)
    assert _rows(thinned) == _thin_reference(table)


def test_thin_ccdf_keeps_zero_row_that_loglog_drops(tmp_path):
    # x <= 0 rows share one cell below every other: the first positive
    # row opens a new one; the two nonpositive rows here differ in p
    x = np.array([-1.0, 0.0, 2e-3, 2.0001e-3, 5.0])
    table = CcdfTable(x=x, p=np.array([1.0, 0.8, 0.6, 0.595, 0.2]))
    thinned = thin_ccdf(table)
    assert _rows(thinned) == [(-1.0, 1.0), (0.0, 0.8), (2e-3, 0.6), (5.0, 0.2)]
    save_ccdf(thinned, tmp_path / "t.csv")
    save_ccdf_loglog(thinned, tmp_path / "t.txt")
    assert (tmp_path / "t.csv").read_text().splitlines()[1:3] == ["-1.0,1.0", "0.0,0.8"]
    loglog = (tmp_path / "t.txt").read_text().splitlines()[1:]
    assert loglog == [f"{math.log10(a)!r} {math.log10(b)!r}" for a, b in [(2e-3, 0.6), (5.0, 0.2)]]


def test_thin_ccdf_keeps_every_row_of_a_sparse_table():
    # each row in its own x cell: fewer rows than the grid, all kept
    x = 10.0 ** np.array([-2.3, -0.7, 0.5, 1.25, 3.9])
    table = CcdfTable(x=x, p=np.array([1.0, 0.8, 0.6, 0.4, 0.2]))
    assert _rows(thin_ccdf(table)) == _rows(table)


def test_thin_ccdf_holds_one_cell_array_at_a_time():
    # seed 7's R table (621,641 rows, pool 10^6) read a tracemalloc peak
    # of 26.0 bytes a row (15.41 MiB) with both columns' float64 cells
    # alive at once, and 18.0 with one column's: its cells and their
    # compacted log10 copy, 8 bytes a row each, plus two masks
    table = _table(200_000)
    thin_ccdf(table)  # first-call set-up off the books
    tracemalloc.start()
    try:
        thin_ccdf(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * table.size


def test_thin_ccdf_keeps_one_row_per_cell():
    # about 3 in 10 rows open a new cell of this table
    table = _table(200_000)
    thinned = thin_ccdf(table)
    assert _rows(thinned) == _thin_reference(table)
    decades_x = math.log10(table.x[-1]) - math.log10(table.x[0])
    decades_p = -math.log10(table.p[-1])
    bound = math.ceil(ROWS_PER_DECADE * decades_x) + math.ceil(ROWS_PER_DECADE * decades_p) + 2
    assert thinned.size <= bound
