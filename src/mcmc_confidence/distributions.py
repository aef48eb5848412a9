"""Distribution functions and the special functions behind them.

Pure functions on the stdlib ``math`` and ``statistics``: the normal
quantile, and the Student-t CDF and quantile the intervals use, which rest
on the incomplete-beta continued fraction. All are scalar except
``t_quantiles``, the t quantile at one probability for a numpy array of
degrees of freedom, which gives ``t_quantile``'s bits at every entry.
Non-integer degrees of freedom are accepted everywhere.

The Student-t quantile needs no root search. Where the term it omits is
below an ulp it is the Cornish-Fisher series in 1/df (Abramowitz & Stegun
26.7.5); elsewhere Newton steps in ln t from that series, or for small df
from the power-law tail (Hill, CACM 13, 1970, Algorithm 396), act on the
log of the upper tail, or near the median of the central mass p - 1/2.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from statistics import NormalDist

import numpy as np

__all__ = [
    "normal_quantile",
    "t_cdf",
    "t_quantile",
    "t_quantiles",
]

_LN_SQRT_PI = 0.5723649429247000870717136756012478

_BETA_MAX_ITER = 300
_BETA_EPS = 1e-14
_TINY = 1e-300

_EPS = sys.float_info.epsilon
_LN_SQRT_MAX = 0.5 * math.log(sys.float_info.max)
_STD_NORMAL = NormalDist()


def _beta_cont_frac(a: float, b: float, x: float) -> float:
    # modified Lentz evaluation of the incomplete-beta continued fraction
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if -_TINY < d < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_MAX_ITER + 1):
        m2 = 2 * m
        # the even and the odd step of the m-th pair of partial numerators
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)), -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if -_TINY < d < _TINY:
                d = _TINY
            c = 1.0 + aa / c
            if -_TINY < c < _TINY:
                c = _TINY
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _BETA_EPS:
            return h
    raise ArithmeticError(
        f"incomplete beta continued fraction did not converge (a={a}, b={b}, x={x})"
    )


def _check_df(df: float) -> None:
    if not df > 0.0:
        raise ValueError(f"degrees of freedom must be positive, got {df}")


def _check_prob(p: float) -> None:
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must lie strictly inside (0, 1), got {p}")


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF."""
    _check_prob(p)
    return _STD_NORMAL.inv_cdf(p)


def _ln_gamma_half_ratio(a: float) -> float:
    # ln(Gamma(a + 1/2) / Gamma(a)); for large a the difference of lgammas
    # cancels, so the asymptotic series (truncation below 2.2e-16 from a = 16)
    if a < 16.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    r = 1.0 / (a * a)
    return 0.5 * math.log(a) - (1 / 8 - r * (1 / 192 - r * (1 / 640 - r * (17 / 14336 - r * 31 / 18432)))) / a


def _t_mass(t: float, df: float) -> tuple[bool, float, float]:
    """``(central, ln m, d ln m / d ln t)`` for t > 0: m is the central mass
    P(0 < T < t) where its continued fraction converges fast, otherwise the
    upper tail P(T > t). With y = t^2 / (df + t^2), 2m is I_y(1/2, df/2) or
    I_(1-y)(df/2, 1/2); the switch at y = 3 / (df + 5) is the incomplete beta's
    usual one, x = (a + 1) / (a + b + 2) for I_x(a, b)."""
    a = 0.5 * df
    t2 = t * t
    # ln of x^a (1-x)^(1/2) / B(a, 1/2) with 1 - x = t^2 / (df + t^2), the
    # last factor in a form that does not cancel on its side of the switch
    ln_front = -a * math.log1p(t2 / df) + _ln_gamma_half_ratio(a) - _LN_SQRT_PI
    if t2 * (df + 2.0) < 3.0 * df:
        cf = _beta_cont_frac(0.5, a, t2 / (df + t2))
        return True, ln_front + math.log(t) - 0.5 * math.log(df + t2) + math.log(cf), 1.0 / cf
    cf = _beta_cont_frac(a, 0.5, df / (df + t2))
    return False, ln_front - 0.5 * math.log1p(df / t2) + math.log(cf / df), -df / cf


def t_cdf(x: float, df: float) -> float:
    """Student-t CDF with df > 0 degrees of freedom (need not be integer)."""
    if not 0.0 < df < math.inf or math.isnan(x):
        raise ValueError(f"t_cdf needs finite df > 0 and x not NaN, got x={x}, df={df}")
    if x == 0.0:
        return 0.5
    central, ln_m, _ = _t_mass(abs(x), df)
    m = math.exp(ln_m)
    if central:
        return 0.5 + math.copysign(m, x)
    return 1.0 - m if x > 0.0 else m


def _cornish_fisher(z: float, df):
    """The t quantile at normal quantile z > 0 from A&S 26.7.5 to order
    df^-4, and the df^-5 term it omits (positive, like every g_k(z) / z).
    Plain arithmetic, so ``df`` may be a numpy array: r^5 is a product, not a
    power, because IEEE products round alike in numpy and Python where their
    powers need not, so an array and a scalar df make the same series/Newton
    choice. A product that overflows is inf, where Python's power raises."""
    z2 = z * z
    r = 1.0 / df
    r2 = r * r
    g1 = z * (z2 + 1.0) / 4.0
    g2 = z * ((5.0 * z2 + 16.0) * z2 + 3.0) / 96.0
    g3 = z * (((3.0 * z2 + 19.0) * z2 + 17.0) * z2 - 15.0) / 384.0
    g4 = z * ((((79.0 * z2 + 776.0) * z2 + 1482.0) * z2 - 1920.0) * z2 - 945.0) / 92160.0
    g5 = z * (((((27.0 * z2 + 339.0) * z2 + 930.0) * z2 - 1782.0) * z2 - 765.0) * z2 + 17955.0) / 368640.0
    return z + r * (g1 + r * (g2 + r * (g3 + r * g4))), g5 * (r2 * r2 * r)


@lru_cache(maxsize=4096)
def t_quantile(p: float, df: float) -> float:
    """Inverse Student-t CDF, antisymmetric about p = 1/2 by construction;
    OverflowError beyond |t| = 1e154, which only df below 2 reach, and every
    df up to 1e-20 at p = 0.9 or 0.1 or further out, down to the smallest
    subnormal."""
    _check_df(df)
    _check_prob(p)
    if p == 0.5:
        return 0.0
    # the quantile of max(p, 1 - p) carrying the sign of p - 1/2; the tail
    # min(p, 1 - p) and the central mass |p - 1/2| are both exact
    tail = min(p, 1.0 - p)
    t, omitted = _cornish_fisher(-_STD_NORMAL.inv_cdf(tail), df)
    if not omitted < _EPS * t:  # also where t or omitted overflowed
        if omitted < 1e-3 * t:  # the series is still a close start
            u = math.log(t)
        elif df * tail:
            # solves the power-law tail P(T > t) ~ (df / t^2)^(df/2) / (df B(df/2, 1/2)),
            # which exceeds P(T > t), so u starts above the root
            u = 0.5 * math.log(df) + (_ln_gamma_half_ratio(0.5 * df) - _LN_SQRT_PI - math.log(df * tail)) / df
        else:  # df * tail underflows, so df <= 1/2 and that start lies far beyond ln 1e154
            u = math.inf
        t = _t_newton(u, tail, abs(p - 0.5), df)
    return math.copysign(t, p - 0.5)


def t_quantiles(p: float, dfs) -> np.ndarray:
    """``t_quantile(p, df)`` for every entry of the array ``dfs``, bit for bit.

    The Cornish-Fisher series runs once on the whole array, with the scalar's
    arithmetic, and an entry keeps it on the scalar's test, where the omitted
    term is below an ulp of t; every other entry goes through ``t_quantile``
    itself. A df that is not positive, or p outside (0, 1), raises
    ``t_quantile``'s ValueError.
    """
    dfs = np.asarray(dfs, dtype=float)
    bad = dfs[~(dfs > 0.0)]
    if bad.size:
        _check_df(bad[0])
    _check_prob(p)
    if p == 0.5:
        return np.zeros(dfs.shape)
    with np.errstate(over="ignore", invalid="ignore"):  # tiny df: those entries take t_quantile
        t, omitted = _cornish_fisher(-_STD_NORMAL.inv_cdf(min(p, 1.0 - p)), dfs)
        out = np.copysign(t, p - 0.5)
        newton = np.flatnonzero(~(omitted < _EPS * t))
    out.flat[newton] = [t_quantile(p, df) for df in dfs.flat[newton].tolist()]
    return out


def _t_newton(u: float, tail: float, mass: float, df: float) -> float:
    # Newton steps in u = ln t on ln P(0 < T < t) - ln mass or ln P(T > t) - ln tail,
    # whichever _t_mass evaluates at the iterate; both are concave in u and
    # share their root, so the iterates cross it at most once. Convergence is
    # quadratic: after a step below 1e-9 the error is of the order of its square.
    if u > _LN_SQRT_MAX:
        raise OverflowError(f"t quantile out of float range (tail {tail}, df {df})")
    ln_mass, ln_tail = math.log(mass), math.log(tail)
    for _ in range(100):
        central, ln_m, slope = _t_mass(math.exp(u), df)
        step = ((ln_mass if central else ln_tail) - ln_m) / slope
        u += step
        if abs(step) < 1e-9:
            return math.exp(u)
    raise ArithmeticError(f"t quantile did not converge (tail {tail}, df {df})")
