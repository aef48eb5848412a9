"""Distribution functions and the special functions behind them.

Scalar, pure, and dependency-free (stdlib ``math`` only): log-gamma,
regularized incomplete beta, normal and Student-t CDFs and quantiles, and
the heavy-tailed example density the data-augmentation sampler targets.
Quantiles are found by bracketing the root of the CDF and polishing with
safeguarded secant steps, so correctness does not hinge on closed-form
approximations. Non-integer degrees of freedom are accepted everywhere.
"""

from __future__ import annotations

import math
from functools import lru_cache

__all__ = [
    "ln_gamma",
    "reg_inc_beta",
    "normal_cdf",
    "normal_pdf",
    "normal_quantile",
    "t_cdf",
    "t_quantile",
    "t4_pdf",
]

# Lanczos approximation, g = 7, 9 terms.
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_LN_SQRT_2PI = 0.9189385332046727417803297364056176
_SQRT_2PI = 2.506628274631000502415765284811045
_SQRT2 = 1.4142135623730951

_BETA_MAX_ITER = 300
_BETA_EPS = 1e-14
_TINY = 1e-300

# probability-scale tolerance for the quantile root finders
_INVERT_PROB_TOL = 1e-12


def ln_gamma(x: float) -> float:
    """Natural log of the gamma function, x > 0."""
    if x <= 0.0 or math.isnan(x):
        raise ValueError(f"ln_gamma requires x > 0, got {x}")
    if x < 0.5:
        # reflection: Gamma(x) Gamma(1-x) = pi / sin(pi x)
        return math.log(math.pi / math.sin(math.pi * x)) - ln_gamma(1.0 - x)
    z = x - 1.0
    acc = _LANCZOS_COEF[0]
    for i in range(1, len(_LANCZOS_COEF)):
        acc += _LANCZOS_COEF[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _LN_SQRT_2PI + (z + 0.5) * math.log(t) - t + math.log(acc)


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
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if -_TINY < d < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if -_TINY < c < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
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


@lru_cache(maxsize=64)
def _minus_ln_beta(a: float, b: float) -> float:
    # -ln B(a, b); one t_quantile evaluates its CDF at a single (a, b) many times
    return ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b)


def reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"reg_inc_beta requires a, b > 0, got ({a}, {b})")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"reg_inc_beta requires 0 <= x <= 1, got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = _minus_ln_beta(a, b) + a * math.log(x) + b * math.log1p(-x)
    front = math.exp(ln_front)
    # symmetry switch keeps the continued fraction in its fast-converging region
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cont_frac(a, b, x) / a
    return 1.0 - front * _beta_cont_frac(b, a, 1.0 - x) / b


def _check_prob(p: float) -> None:
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must lie strictly inside (0, 1), got {p}")


def _invert_increasing(f, target: float, lo: float, hi: float) -> float:
    """Solve f(x) = target for increasing f with f(lo) <= target <= f(hi).

    Secant steps are projected back into the bracket (bisection fallback),
    so the iteration cannot escape and terminates either on the
    probability-scale tolerance or on bracket collapse.
    """
    x0, f0 = lo, f(lo) - target
    x1, f1 = hi, f(hi) - target
    if f0 > 0.0 or f1 < 0.0:
        raise ValueError("root is not bracketed")
    for _ in range(256):
        if f1 != f0:
            x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
        else:
            x2 = 0.5 * (lo + hi)
        if not lo < x2 < hi:
            x2 = 0.5 * (lo + hi)
        f2 = f(x2) - target
        if abs(f2) <= _INVERT_PROB_TOL:
            return x2
        if f2 < 0.0:
            lo = x2
        else:
            hi = x2
        x0, f0, x1, f1 = x1, f1, x2, f2
        if hi - lo <= 1e-15 * (abs(lo) + abs(hi)) + _TINY:
            break
    return 0.5 * (lo + hi)


def normal_cdf(x: float) -> float:
    """Standard normal CDF."""
    return 0.5 * math.erfc(-x / _SQRT2)


def normal_pdf(x: float, mean: float = 0.0, sd: float = 1.0) -> float:
    if sd <= 0.0:
        raise ValueError(f"normal_pdf requires sd > 0, got {sd}")
    z = (x - mean) / sd
    return math.exp(-0.5 * z * z) / (sd * _SQRT_2PI)


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF."""
    _check_prob(p)
    if p == 0.5:
        return 0.0
    if p < 0.5:
        return -normal_quantile(1.0 - p)
    hi = 1.0
    while normal_cdf(hi) < p:
        hi *= 2.0
    return _invert_increasing(normal_cdf, p, 0.0, hi)


def t_cdf(x: float, df: float) -> float:
    """Student-t CDF with df > 0 degrees of freedom (need not be integer)."""
    if df <= 0.0:
        raise ValueError(f"degrees of freedom must be positive, got {df}")
    if x == 0.0:
        return 0.5
    tail = reg_inc_beta(0.5 * df, 0.5, df / (df + x * x))
    return 1.0 - 0.5 * tail if x > 0.0 else 0.5 * tail


@lru_cache(maxsize=4096)
def t_quantile(p: float, df: float) -> float:
    """Inverse Student-t CDF; antisymmetric about p = 1/2 by construction."""
    if df <= 0.0:
        raise ValueError(f"degrees of freedom must be positive, got {df}")
    _check_prob(p)
    if p == 0.5:
        return 0.0
    if p < 0.5:
        return -t_quantile(1.0 - p, df)
    hi = 1.0
    while t_cdf(hi, df) < p:
        hi *= 2.0
    return _invert_increasing(lambda v: t_cdf(v, df), p, 0.0, hi)


def t4_pdf(x: float) -> float:
    """Density (3/8) * (1 + x^2/4)^(-5/2), the Student-t with 4 df."""
    return 0.375 * (1.0 + 0.25 * x * x) ** -2.5
