"""Accuracy of the distribution functions against scipy, a test-only oracle.

The grids cover the degrees of freedom the CLI uses (from about 9 up to the
stopping rules' 4e5) and well beyond, and probabilities out to 1e-12 in
either tail.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from mcmc_confidence import normal_quantile, t_cdf, t_quantile
from mcmc_confidence.distributions import _EPS, _cornish_fisher

DFS = [0.3, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 100.0, 999.0, 1e3, 1001.0, 1e4, 2e5, 1e7, 1e9]
UPPER = sorted({float(p) for p in np.linspace(0.51, 0.99, 49)} | {1.0 - 10.0**-k for k in range(2, 13)})
PROBS = UPPER + [1.0 - p for p in UPPER]


def rel_err(value, ref):
    return abs(value - ref) / abs(ref)


@pytest.mark.parametrize("df", DFS)
def test_t_quantile_matches_scipy(df):
    worst = max(rel_err(t_quantile(p, df), stats.t.ppf(p, df)) for p in PROBS)
    assert worst <= 1e-13


@pytest.mark.parametrize("df", [1.0, 2.0])
def test_t_quantile_near_the_median_matches_closed_forms(df):
    # scipy is about 4e-10 off for p - 1/2 below 0.01, so the reference is
    # the closed form in the exact p - 1/2 and 1 - p
    for d in np.geomspace(1e-15, 0.01, 60):
        p = 0.5 + float(d)
        mass, tail = p - 0.5, 1.0 - p
        if df == 1.0:
            ref = math.tan(math.pi * mass)
        else:
            ref = 2.0 * mass / math.sqrt(2.0 * p * tail)
        assert rel_err(t_quantile(p, df), ref) <= 1e-13
        assert rel_err(t_quantile(tail, df), -ref) <= 1e-13


def _series_switch(p):
    # the df at which t_quantile moves from Newton steps to the bare series
    z = normal_quantile(p)
    lo, hi = 1.0, 1e9
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        t, omitted = _cornish_fisher(z, mid)
        if omitted > _EPS * t:
            lo = mid
        else:
            hi = mid
    return hi


@pytest.mark.parametrize("p", [0.51, 0.75, 0.9, 0.975, 0.9875, 1.0 - 1e-6, 1.0 - 1e-12])
def test_t_quantile_is_accurate_and_monotone_across_the_series_switch(p):
    switch = _series_switch(p)
    dfs = [switch * f for f in (0.99, 0.999, 1.0, 1.001, 1.01)]
    values = [t_quantile(p, df) for df in dfs]
    for df, value in zip(dfs, values):
        assert rel_err(value, stats.t.ppf(p, df)) <= 1e-13
    assert all(b < a for a, b in zip(values, values[1:]))


@given(
    p=st.floats(0.51, 1.0 - 1e-10),
    log_df=st.floats(math.log10(0.3), 9.0),
    factor=st.floats(1.001, 10.0),
)
def test_t_quantile_strictly_decreasing_in_df(p, log_df, factor):
    df = 10.0**log_df
    assert t_quantile(p, df * factor) < t_quantile(p, df)


def test_normal_quantile_matches_scipy():
    probs = ([10.0**-k for k in range(300, 0, -1)] + [float(p) for p in np.linspace(0.001, 0.999, 999)]
             + [1.0 - 10.0**-k for k in range(1, 17)])
    worst = max(rel_err(normal_quantile(p), stats.norm.ppf(p)) for p in probs if p != 0.5)
    assert worst <= 2e-15


# bounds on the worst relative error of t_cdf against scipy at the t
# quantiles of PROBS. The comments give the worst error of the earlier
# Lanczos/lgamma-difference t_cdf; from df = 100 on each bound is below it,
# and under that the 1e-14 floor (about 50 ulp) leaves room for the rounding
# noise both versions show (2.3e-15 to 9.6e-15).
CDF_BOUND = {
    0.3: 1e-14,  # 3.2e-15
    0.5: 1e-14,  # 2.3e-15
    1.0: 1e-14,  # 2.5e-15
    2.0: 1e-14,  # 2.6e-15
    3.0: 1e-14,  # 3.9e-15
    5.0: 1e-14,  # 6.2e-15
    10.0: 1e-14,  # 9.6e-15
    100.0: 5e-14,  # 1.5e-13
    999.0: 2e-13,  # 2.6e-12
    1e3: 2e-13,  # 4.7e-12
    1001.0: 2e-13,  # 1.5e-12
    1e4: 2e-12,  # 1.9e-11
    2e5: 5e-11,  # 2.0e-9
    1e7: 1e-9,  # 1.7e-8
    1e9: 1e-7,  # 7.3e-6
}


@pytest.mark.parametrize("df", DFS)
def test_t_cdf_matches_scipy(df):
    worst = 0.0
    for p in PROBS:
        x = stats.t.ppf(p, df)
        worst = max(worst, rel_err(t_cdf(x, df), stats.t.cdf(x, df)))
    assert worst <= CDF_BOUND[df]
