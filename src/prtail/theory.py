"""Closed-form tail predictions and a transform-domain moment oracle.

The rank variable's CCDF is asymptotically the in-degree CCDF times

    y(c) = c**alpha / (d**alpha - c**alpha * d),

and y is the single number the Monte-Carlo offset measurements are
compared against. Independently of any sampling, the LST r(s) of R
solves

    r(s) = f(1 - r((c/d) s)) * exp(-s (1 - c))

with f the LST of T. Iterating this relation on a log-spaced grid
gives moments of R to high accuracy, which cross-checks the simulator
without sharing any of its code paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator

from .errors import NumericError, ParameterError
from .fixedpoint import ModelParams
from .rvmodel import TailSpec

DEFAULT_S_MIN = 1e-6
DEFAULT_MAX_SWEEPS = 10_000
# solve_lst's grid: N_POINTS log-spaced arguments on [s_min, S_MAX],
# swept until the sup-norm change is at most SWEEP_TOL
S_MAX = 1e2
N_POINTS = 2048
SWEEP_TOL = 1e-12
# second_moment_from_lst's fit window in s
MOMENT_WINDOW = (1e-4, 1e-3)
# pareto_lst's table: TABLE_POINTS log-spaced arguments on [W_FLOOR, W_MAX]
W_FLOOR = 1e-9
W_MAX = 16.0
TABLE_POINTS = 4096


def factor(c: float, d: float, alpha: float) -> float:
    """Exact evaluation of y(c) = c^a / (d^a - c^a d).

    The parameters must be finite and admissible, as for ModelParams.
    The denominator is positive throughout the admissible range
    (c < 1 < d gives d^(a-1) > 1 > c^a), so y > 0 always.
    """
    ModelParams(c=c, d=d, alpha=alpha)  # raises ParameterError outside the domain
    return c**alpha / (d**alpha - c**alpha * d)


def exponential_lst(mean: float):
    """LST of an exponential variable with the given mean: 1/(1 + mean*s)."""
    if not mean > 0:
        raise ParameterError(f"mean must be positive, got {mean}")

    def f(s):
        return 1.0 / (1.0 + mean * np.asarray(s, dtype=float))

    return f


def pareto_lst(spec: TailSpec):
    """Numeric LST of a Pareto T, tabulated once and interpolated.

    The Laplace integral has no elementary form, so it is evaluated by
    adaptive quadrature on a log-spaced argument table and read back
    through a monotone (PCHIP) interpolant in log s. Below W_FLOOR the
    two-term expansion 1 - mean*s takes over; the seam mismatch is
    O(W_FLOOR^alpha), under 1e-8 for this floor. The table must
    stay dense enough that the interpolant's piecewise curvature jumps
    (~1e-4 at 512 points) do not leak into second-difference checks of
    the solved fixed point; 4096 points drives them below 1e-12.
    """
    alpha, m = spec.alpha, spec.x_scale
    mean = spec.mean()

    def integral(w: float) -> float:
        value, _ = quad(
            lambda x: alpha * m**alpha * x ** (-alpha - 1.0) * math.exp(-w * x),
            m,
            np.inf,
            epsabs=1e-13,
            epsrel=1e-12,
            limit=200,
        )
        return value

    w_table = np.geomspace(W_FLOOR, W_MAX, TABLE_POINTS)
    f_table = np.array([integral(w) for w in w_table])
    interp = PchipInterpolator(np.log(w_table), f_table, extrapolate=False)

    def f(s):
        w = np.asarray(s, dtype=float)
        if np.any(w < 0):
            raise ParameterError("LST argument must be nonnegative")
        if np.any(w > W_MAX):
            raise ParameterError(f"LST argument above table range {W_MAX}")
        out = np.where(w < W_FLOOR, 1.0 - mean * w, interp(np.log(np.maximum(w, W_FLOOR))))
        return out if out.ndim else float(out)

    return f


@dataclass(frozen=True)
class LstGrid:
    """Converged transform values r at log-spaced arguments s."""

    s: np.ndarray
    r: np.ndarray
    sweeps: int = 0

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        r = np.asarray(self.r, dtype=float)
        if s.ndim != 1 or s.shape != r.shape or s.size < 2:
            raise ParameterError("grid needs matching 1-d s and r arrays of length >= 2")
        if s[0] <= 0 or np.any(np.diff(s) <= 0):
            raise ParameterError("s must be positive and strictly increasing")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "r", r)


def solve_lst(
    params: ModelParams,
    f_oracle,
    s_min: float = DEFAULT_S_MIN,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
) -> LstGrid:
    """Fixed point of the transform equation on a log-spaced grid.

    Off-grid arguments (c/d)s are read by linear interpolation in
    log s, applied to the quotient (1 - r(s))/s rather than to r
    itself: the quotient is nearly constant as s -> 0, so the
    interpolation error stays O(s^2) and moment extraction through
    second order survives. Arguments below the grid use the expansion
    1 - s, exact to O(s^2). Sweeps run from r = exp(-s) until the
    sup-norm change is at most SWEEP_TOL. c/d < 1 makes the map
    contractive, so failure to converge within max_sweeps raises a
    numeric error.
    """
    if not (0 < s_min < S_MAX):
        raise ParameterError(f"need 0 < s_min < {S_MAX}, got {s_min}")
    s = np.geomspace(s_min, S_MAX, N_POINTS)
    log_s0 = math.log(s_min)
    h = (math.log(S_MAX) - log_s0) / (N_POINTS - 1)
    arg = (params.c / params.d) * s
    pos = (np.log(arg) - log_s0) / h
    below = pos < 0
    j = np.clip(np.floor(pos).astype(np.int64), 0, N_POINTS - 2)
    w = np.clip(pos - j, 0.0, 1.0)
    decay = np.exp(-(1.0 - params.c) * s)
    r = np.exp(-s)
    for sweep in range(1, max_sweeps + 1):
        q = (1.0 - r) / s
        q_arg = (1.0 - w) * q[j] + w * q[j + 1]
        r_arg = np.where(below, 1.0 - arg, 1.0 - arg * q_arg)
        nxt = np.asarray(f_oracle(1.0 - r_arg), dtype=float) * decay
        delta = float(np.abs(nxt - r).max())
        r = nxt
        if delta <= SWEEP_TOL:
            return LstGrid(s=s, r=r, sweeps=sweep)
    raise NumericError(
        f"transform iteration did not reach sup-norm {SWEEP_TOL} within {max_sweeps} sweeps"
    )


def mean_from_lst(grid: LstGrid) -> float:
    """-r'(0+) via the smallest grid point: (1 - r(s0))/s0.

    Truncation bias is (eta2/2)*s0 when R has a finite second moment,
    so with the default grid this is exact to well under 1e-4.
    """
    return float((1.0 - grid.r[0]) / grid.s[0])


def second_moment_from_lst(grid: LstGrid) -> float:
    """E R^2 from the grid by extrapolating 2(r(s) - 1 + s)/s^2 to 0.

    The quotient equals eta2 - (eta3/3) s + O(s^2); a linear fit over
    a small-s window removes the leading term while staying above the
    cancellation floor near machine epsilon. The window, MOMENT_WINDOW,
    sits high enough that the recursion's child arguments stay on-grid,
    so the below-grid expansion cannot disturb the s^2 coefficient.
    """
    lo, hi = MOMENT_WINDOW
    mask = (grid.s >= lo) & (grid.s <= hi)
    if int(mask.sum()) < 2:
        raise ParameterError(f"window {MOMENT_WINDOW} covers fewer than 2 grid points")
    s = grid.s[mask]
    q = 2.0 * (grid.r[mask] - 1.0 + s) / s**2
    slope_intercept = np.polyfit(s, q, 1)
    return float(slope_intercept[1])


def second_moment_prediction(params: ModelParams, t_second_moment: float) -> float:
    """eta2 = E R^2 in closed form given mu2 = E T^2.

    Differentiating the transform equation twice at s = 0 (using
    f'(0) = -d, f''(0) = mu2, and eta1 = 1) leaves one linear relation
    in eta2:

        eta2 (1 - c^2/d) = mu2 c^2/d^2 + 1 - c^2.
    """
    if not t_second_moment > 0:
        raise ParameterError(f"t_second_moment must be positive, got {t_second_moment}")
    c, d = params.c, params.d
    return (t_second_moment * c**2 / d**2 + 1.0 - c**2) / (1.0 - c**2 / d)
