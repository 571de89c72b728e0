"""Empirical tail analysis: CCDF tables and maximum-likelihood tail fits.

The tail-index estimator is the Hill/Newman MLE for the CCDF index,
alpha = n_tail / sum(ln(x_i / x_min)) over the samples at or above a
threshold x_min. The density (histogram) exponent is alpha + 1; all
exponents reported by this module are CCDF exponents.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFitError, ParameterError
from .samples import write_json, write_table

# quantile levels of log_ccdf_offset's band, 0 < lo < hi < 1
QUANTILE_BAND = (0.99, 0.9999)
DEFAULT_TOP_FRACTION = 0.1
# thin_ccdf keeps at most about this many rows per decade of x and of p
ROWS_PER_DECADE = 100


def _values(samples) -> np.ndarray:
    values = np.asarray(samples, dtype=float)
    if values.ndim != 1:
        raise ParameterError(f"samples must be one-dimensional, got shape {values.shape}")
    return values


@dataclass(frozen=True)
class CcdfTable:
    """Empirical CCDF: p[k] = fraction of samples >= x[k], x ascending."""

    x: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        p = np.asarray(self.p, dtype=float)
        if x.ndim != 1 or x.shape != p.shape or x.size == 0:
            raise ParameterError("x and p must be nonempty 1-d arrays of equal length")
        # each check states what must hold, so NaN fails it; a NaN in x
        # makes a difference NaN, except in a one-row table
        if np.isnan(x[0]) or not np.all(np.diff(x) > 0):
            raise ParameterError("x values must be strictly increasing")
        if not (np.all(p > 0) and np.all(p <= 1)):
            raise ParameterError("p values must lie in (0, 1]")
        if not np.all(np.diff(p) <= 0):
            raise ParameterError("p must be non-increasing in x")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "p", p)

    @property
    def size(self) -> int:
        return self.x.size

    def quantile(self, level: float) -> float:
        """Smallest table value whose CDF reaches level. The CDF at x[k]
        is 1 - p[k + 1], and 1 at the last row; a bisection compares level
        with those doubles as np.searchsorted over the built column would."""
        if not 0 < level < 1:
            raise ParameterError(f"quantile level must lie in (0, 1), got {level}")
        p = self.p
        row = bisect.bisect_left(range(self.size - 1), level, key=lambda k: 1.0 - float(p[k + 1]))
        return float(self.x[row])

    def log_interp(self, x_grid: np.ndarray) -> np.ndarray:
        """log10 p at the grid points, linear in (log10 x, log10 p)
        between the table's rows. Rows at x <= 0 (a zero-count atom,
        typically) cannot appear on a log axis and are excluded, exactly
        as in the log-log export."""
        start = int(np.searchsorted(self.x, 0.0, side="right"))
        if start == self.size:
            raise ParameterError("log-log interpolation requires positive support")
        return np.interp(np.log10(x_grid), np.log10(self.x[start:]), np.log10(self.p[start:]))


def ccdf(samples) -> CcdfTable:
    """Empirical CCDF table at the distinct sample values. Beside the
    table it holds one sorted copy of the samples, dropped once x is
    taken, and the runs' starts."""
    values = np.sort(_values(samples))
    n = values.size
    if n == 0:
        raise ParameterError("cannot build a CCDF from an empty sample")
    # the sort puts NaN last; NaN equals nothing, so no run of it is found
    if np.isnan(values[-1]):
        raise ParameterError("cannot build a CCDF from NaN samples")
    # each run of equal values starts where it differs from the one before
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.not_equal(values[1:], values[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    del first
    x = values[starts]
    del values
    # n - start values lie at or above a run's start: np.unique's counts
    # summed from the top, exact as doubles, then divided by n
    p = np.subtract(n, starts, dtype=float)
    del starts
    p /= n
    return CcdfTable(x=x, p=p)


def thin_ccdf(table: CcdfTable) -> CcdfTable:
    """The rows of table that open a new cell of a log-log plot.

    A row is kept where floor(ROWS_PER_DECADE * log10 x) or
    floor(ROWS_PER_DECADE * log10 p) differs from the previous row's;
    every x <= 0 lies in one cell below all others. The first and last
    rows are always kept, and each kept row keeps its exact p. So a
    table spanning D decades of x and P decades of p keeps at most
    ceil(K D) + ceil(K P) + 2 rows, K = ROWS_PER_DECADE, with one more
    where it has rows at x <= 0.
    """
    keep = np.ones(table.size, dtype=bool)
    x_cells, p_cells = _log_cells(table.x), _log_cells(table.p)
    keep[1:-1] = (x_cells[1:-1] != x_cells[:-2]) | (p_cells[1:-1] != p_cells[:-2])
    return CcdfTable(x=table.x[keep], p=table.p[keep])


def _log_cells(v: np.ndarray) -> np.ndarray:
    """floor(ROWS_PER_DECADE * log10 v), and -inf where v <= 0."""
    cells = np.full(v.shape, -np.inf)
    positive = v > 0
    # in place on the one compacted copy; a where= mask could take another
    # log10 loop, whose last bit may differ
    logs = v[positive]
    np.log10(logs, out=logs)
    logs *= ROWS_PER_DECADE
    cells[positive] = np.floor(logs, out=logs)
    return cells


def save_ccdf(table: CcdfTable, path) -> None:
    """Two-column CSV "x,p", one row per row of the table; the CLI
    passes thin_ccdf of the full table."""
    write_table(path, "x,p\n", "%r,%r\n", table.x, table.p)


def save_ccdf_loglog(table: CcdfTable, path) -> None:
    """Whitespace-separated math.log10 of the table's x and p, one row
    per row of the table with x > 0; rows with x <= 0 are dropped."""
    keep = table.x > 0
    # math.log10, not np.log10, whose last bit can differ
    columns = [np.array(list(map(math.log10, column[keep].tolist()))) for column in (table.x, table.p)]
    write_table(path, "# log10_x log10_p\n", "%r %r\n", *columns)


@dataclass(frozen=True)
class TailFit:
    """Hill/Newman fit of the CCDF index above x_min."""

    x_min: float
    alpha_ccdf: float
    n_tail: int
    stderr: float

    def __post_init__(self):
        if self.n_tail < 2:
            raise ParameterError(f"n_tail must be at least 2, got {self.n_tail}")
        if not self.alpha_ccdf > 0:
            raise ParameterError(f"alpha_ccdf must be positive, got {self.alpha_ccdf}")

    @property
    def density_exponent(self) -> float:
        return self.alpha_ccdf + 1.0


def fit_tail_mle(samples, x_min: float) -> TailFit:
    """MLE of the CCDF index over samples >= x_min.

    Samples equal to x_min count toward n_tail but contribute zero to
    the log-sum; at least two samples strictly above x_min are needed
    for a nondegenerate fit.
    """
    values = _values(samples)
    if not x_min > 0:
        raise ParameterError(f"x_min must be positive, got {x_min}")
    tail = values[values >= x_min]
    n_tail = int(tail.size)
    # too few points above threshold is a property of the data, not the call
    if np.count_nonzero(tail > x_min) < 2:
        raise DegenerateFitError(
            f"need at least 2 samples strictly above x_min={x_min} for a tail fit"
        )
    log_sum = float(np.log(tail / x_min).sum())
    alpha = n_tail / log_sum
    return TailFit(
        x_min=float(x_min),
        alpha_ccdf=alpha,
        n_tail=n_tail,
        stderr=alpha / math.sqrt(n_tail),
    )


def check_top_fraction(fraction: float) -> None:
    """Raise ParameterError unless fraction lies in (0, 1]."""
    if not 0 < fraction <= 1:
        raise ParameterError(f"fraction must lie in (0, 1], got {fraction}")


def x_min_for_top_fraction(samples, fraction: float) -> float:
    """Threshold at the k-th largest sample, k = ceil(fraction * n)."""
    values = _values(samples)
    check_top_fraction(fraction)
    if values.size == 0:
        raise ParameterError("cannot pick a threshold from an empty sample")
    k = max(1, int(math.ceil(fraction * values.size)))
    return float(np.sort(values)[values.size - k])


def fit_tail_fraction(samples, fraction: float) -> TailFit:
    """Fit the tail above the top-fraction threshold.

    A threshold of zero or below comes from the data (the top fraction
    is all zeros, say), not from the call, so it is a degenerate fit.
    """
    x_min = x_min_for_top_fraction(samples, fraction)
    if not x_min > 0:
        raise DegenerateFitError(f"top-{fraction} threshold {x_min} is not positive")
    return fit_tail_mle(samples, x_min)


def save_tail_fit(fit: TailFit, path) -> None:
    write_json(
        path,
        {
            "x_min": fit.x_min,
            "alpha_ccdf": fit.alpha_ccdf,
            "n_tail": fit.n_tail,
            "stderr": fit.stderr,
            "density_exponent": fit.density_exponent,
        },
    )


def log_ccdf_offset(a: CcdfTable, b: CcdfTable) -> float:
    """Mean vertical gap log10 p_a - log10 p_b over a shared tail band.

    The band is taken at the QUANTILE_BAND levels of the heavier
    table (the one reaching further at the band's upper level) and
    intersected with both supports; the gap is averaged over a
    log-spaced grid with linear interpolation in log-log coordinates.
    """
    lo, hi = QUANTILE_BAND
    a_hi, b_hi = a.quantile(hi), b.quantile(hi)
    heavy, heavy_hi = (a, a_hi) if a_hi >= b_hi else (b, b_hi)
    x_lo = max(heavy.quantile(lo), float(a.x[0]), float(b.x[0]))
    x_hi = min(heavy_hi, float(a.x[-1]), float(b.x[-1]))
    if not x_lo < x_hi:
        raise ParameterError(
            f"CCDF supports do not overlap inside the quantile band {QUANTILE_BAND}"
        )
    if x_lo <= 0:
        raise ParameterError("log offset band requires positive support")
    grid = np.geomspace(x_lo, x_hi, 50)
    return float(np.mean(a.log_interp(grid) - b.log_interp(grid)))
