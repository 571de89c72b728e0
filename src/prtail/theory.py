"""Closed-form tail predictions and a transform-domain moment oracle.

The rank variable's CCDF is asymptotically the in-degree CCDF times

    y(c) = c**alpha / (d**alpha - c**alpha * d),

and y is the single number the Monte-Carlo offset measurements are
compared against. Independently of any sampling, the LST r(s) of R
solves

    r(s) = f(1 - r((c/d) s)) * exp(-s (1 - c))

with f the LST of T. Iterating this relation on a log-spaced grid
gives moments of R to high accuracy, which cross-checks the simulator
without sharing any of its code paths. For a Pareto T, f is the
closed form alpha*z^alpha*Gamma(-alpha, z) with z = x_scale*s
(pareto_lst), which keeps its s^alpha singular term, the term the
Tauberian argument ties to the tail of T, down to any s > 0.

No function here integrates numerically, and nothing imports
scipy.integrate. The module-level name `quad` is None: it exists only
because perfbench's tracer rebinds `theory.quad` to count calls and
fails where the name is missing, and it goes with the next change to
the benchmark. scipy.special, which pareto_lst needs for Gamma(-alpha,
z), loads on the first pareto_lst call, so importing this module (and
the CLI, which uses factor alone) loads no special functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
# nothing integrates; perfbench's tracer rebinds theory.quad to count calls
quad = None


def factor(c: float, d: float, alpha: float) -> float:
    """Exact evaluation of y(c) = c^a / (d^a - c^a d).

    The parameters must be finite and admissible, as for ModelParams.
    The denominator is positive throughout the admissible range
    (c < 1 < d gives d^(a-1) > 1 > c^a), so y > 0 in exact arithmetic;
    where c^a underflows or d^a overflows the double, a ParameterError
    says so instead of returning 0 or raising OverflowError.
    """
    ModelParams(c=c, d=d, alpha=alpha)  # raises ParameterError outside the domain
    try:
        y = c**alpha / (d**alpha - c**alpha * d)
    except OverflowError:
        y = math.inf
    if not 0 < y < math.inf:
        raise ParameterError(
            f"y(c) = c^alpha/(d^alpha - c^alpha*d) is not a positive finite double "
            f"at c={c!r}, d={d!r}, alpha={alpha!r}"
        )
    return y


def pareto_lst(spec: TailSpec):
    """LST f(w) = E exp(-wT) of a Pareto T, in closed form.

    With z = x_scale*w the transform is

        f(w) = alpha * z^alpha * Gamma(-alpha, z),

    the upper incomplete gamma function at a negative order. scipy's
    gammaincc takes positive orders only, so the evaluation starts at
    a0 = k - alpha with k = ceil(alpha), where Gamma(a0, z) is
    gammaincc(a0, z)*gamma(a0), or exp1(z) when alpha is an integer,
    and takes k downward steps of

        Gamma(a-1, z) = (Gamma(a, z) - z^(a-1) e^(-z)) / (a-1).

    The steps carry h_a = z^(-a) Gamma(a, z), for which the step reads
    h_(a-1) = (z*h_a - e^(-z))/(a-1) and f = alpha*h_(-alpha): scaled
    so, no intermediate value overflows for tiny or huge w. f(0) = 1
    exactly. The error against mpmath is under 1e-12, the s^alpha
    term included, for any finite w >= 0; anything else raises.
    """
    # imported here so that importing theory, as the CLI does, loads no special functions
    from scipy.special import exp1, gamma, gammaincc

    alpha, m = spec.alpha, spec.x_scale
    k = math.ceil(alpha)
    a0 = k - alpha

    def f(s):
        w = np.asarray(s, dtype=float)
        if not np.all((w >= 0) & (w < np.inf)):
            raise ParameterError("LST argument must be finite and nonnegative")
        # below the smallest normal double, w = 0 included, f rounds to
        # 1 and z**-a0 could overflow
        z = m * w
        one = z < np.finfo(float).tiny
        z = np.where(one, 1.0, z)
        h = exp1(z) if a0 == 0 else z**-a0 * gammaincc(a0, z) * gamma(a0)
        decay = np.exp(-z)
        for j in range(1, k + 1):
            h = (z * h - decay) / (a0 - j)
        out = np.where(one, 1.0, alpha * h)
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
    1 - s (E R = 1). Its error is O(s^2) only where E R^2 is finite
    (alpha > 2); for 1 < alpha < 2 it is O(s^alpha), the very term
    y(c) is read from. Sweeps run from r = exp(-s) until the
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
