import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mcmc_confidence import normal_quantile, t_cdf, t_quantile, t_quantiles
from mcmc_confidence.distributions import _EPS, _STD_NORMAL, _beta_cont_frac, _cornish_fisher

normal_cdf = NormalDist().cdf

# independent helpers --------------------------------------------------------


def bisect_root(f, target, lo, hi, iters=200):
    """Plain bisection for increasing f; independent of the library's polish."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def adaptive_simpson(f, a, b, tol):
    def simpson(lo, hi, flo, fmid, fhi):
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo, hi, flo, fmid, fhi, whole, eps, depth):
        mid = 0.5 * (lo + hi)
        lmid = 0.5 * (lo + mid)
        rmid = 0.5 * (mid + hi)
        flm, frm = f(lmid), f(rmid)
        left = simpson(lo, mid, flo, flm, fmid)
        right = simpson(mid, hi, fmid, frm, fhi)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return recurse(lo, mid, flo, flm, fmid, left, eps / 2.0, depth - 1) + recurse(
            mid, hi, fmid, frm, fhi, right, eps / 2.0, depth - 1
        )

    mid = 0.5 * (a + b)
    fa, fm, fb = f(a), f(mid), f(b)
    return recurse(a, b, fa, fm, fb, simpson(a, b, fa, fm, fb), tol, 50)


# regularized incomplete beta ------------------------------------------------


def reg_inc_beta(a, b, x):
    """I_x(a, b) from the library's continued fraction, with the front factor
    x^a (1-x)^b / B(a, b) and the usual symmetry switch around it."""
    front = x**a * (1.0 - x) ** b * math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cont_frac(a, b, x) / a
    return 1.0 - front * _beta_cont_frac(b, a, 1.0 - x) / b


@pytest.mark.parametrize("a,b", [(0.5, 0.5), (1.0, 2.0), (3.0, 7.0), (100.0, 0.5)])
def test_inc_beta_boundaries(a, b):
    assert reg_inc_beta(a, b, 0.0) == 0.0
    assert reg_inc_beta(a, b, 1.0) == 1.0


@pytest.mark.parametrize("a", [0.5, 1.0, 2.5, 10.0])
def test_inc_beta_symmetric_at_half(a):
    assert reg_inc_beta(a, a, 0.5) == pytest.approx(0.5, abs=1e-13)


def test_inc_beta_power_closed_forms():
    # I_x(1, b) = 1 - (1-x)^b and I_x(a, 1) = x^a
    assert reg_inc_beta(1.0, 2.0, 0.5) == pytest.approx(0.75, abs=1e-13)
    for x in np.linspace(0.05, 0.95, 19):
        x = float(x)
        assert reg_inc_beta(1.0, 3.5, x) == pytest.approx(1.0 - (1.0 - x) ** 3.5, abs=1e-12)
        assert reg_inc_beta(2.25, 1.0, x) == pytest.approx(x**2.25, abs=1e-12)


def test_inc_beta_arcsine_closed_form():
    for x in np.linspace(0.02, 0.98, 25):
        x = float(x)
        expect = 2.0 / math.pi * math.asin(math.sqrt(x))
        assert reg_inc_beta(0.5, 0.5, x) == pytest.approx(expect, abs=1e-12)


def test_inc_beta_against_quadrature():
    # direct numerical integration of the beta density (a, b >= 1 keeps the
    # integrand bounded)
    cases = [(2.0, 3.0, 0.3), (1.5, 1.0, 0.6), (4.0, 2.5, 0.85), (7.0, 7.0, 0.5)]
    for a, b, x in cases:
        ln_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        dens = lambda t: math.exp(ln_norm + (a - 1.0) * math.log(t) + (b - 1.0) * math.log1p(-t))
        oracle = adaptive_simpson(dens, 1e-12, x, 1e-12)
        assert reg_inc_beta(a, b, x) == pytest.approx(oracle, abs=1e-9)


@given(
    a=st.floats(0.05, 50.0),
    b=st.floats(0.05, 50.0),
    x=st.floats(1e-6, 1.0 - 1e-6),
)
def test_inc_beta_reflection(a, b, x):
    assert reg_inc_beta(a, b, x) + reg_inc_beta(b, a, 1.0 - x) == pytest.approx(1.0, abs=1e-11)


# normal ---------------------------------------------------------------------


def test_normal_quantile_values():
    q = normal_quantile(0.975)
    assert q == pytest.approx(1.959964, abs=5e-7)
    assert q == pytest.approx(bisect_root(normal_cdf, 0.975, 0.0, 10.0), abs=1e-10)
    q25 = normal_quantile(0.25)
    assert q25 == pytest.approx(-0.6744898, abs=5e-8)
    assert q25 == pytest.approx(bisect_root(normal_cdf, 0.25, -10.0, 0.0), abs=1e-10)
    assert normal_quantile(0.5) == 0.0


def test_normal_round_trip():
    for p in np.linspace(0.001, 0.999, 499):
        p = float(p)
        assert abs(normal_cdf(normal_quantile(p)) - p) <= 1e-10


def test_normal_quantile_domain():
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            normal_quantile(bad)


# Student t ------------------------------------------------------------------


def test_t_cdf_center_and_domain():
    for df in (1.0, 2.5, 44.0):
        assert t_cdf(0.0, df) == 0.5
    with pytest.raises(ValueError):
        t_cdf(1.0, 0.0)
    with pytest.raises(ValueError):
        t_cdf(1.0, -3.0)


def test_t_cdf_strictly_increasing():
    # grid chosen so tail increments stay above double-precision resolution
    for df in (1.0, 2.0, 44.0, 1954.0):
        grid = np.linspace(-6.0, 6.0, 301)
        vals = [t_cdf(float(v), df) for v in grid]
        assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))


def test_t_quantile_median_is_zero():
    for df in (1.0, 3.5, 1954.0):
        assert t_quantile(0.5, df) == 0.0


def test_t_quantile_cauchy_closed_form():
    assert abs(t_quantile(0.9, 1.0) - math.tan(0.4 * math.pi)) < 1e-6


def test_t_quantile_normal_limit():
    assert abs(t_quantile(0.9, 1000.0) - 1.2816) < 1e-3


def test_t_quantile_frozen_table():
    # reference values from an independent implementation
    table = {
        (0.9, 13.0): 1.3501712887800512,
        (0.975, 30.0): 2.0422724563012373,
        (0.9875, 1957.0): 2.243128834162402,
        (0.6, 4.5): 0.2687518355416629,
    }
    for (p, df), expect in table.items():
        assert t_quantile(p, df) == pytest.approx(expect, abs=1e-8)


@given(p=st.floats(0.001, 0.999), df=st.floats(0.5, 2000.0))
def test_t_quantile_symmetry(p, df):
    assert t_quantile(p, df) == pytest.approx(-t_quantile(1.0 - p, df), abs=1e-12)


def test_t_round_trip_grid():
    worst = 0.0
    for df in (1.0, 2.0, 5.0, 44.0, 1954.0):
        for i in range(1, 100):
            p = i / 100.0
            worst = max(worst, abs(t_cdf(t_quantile(p, df), df) - p))
    assert worst <= 1e-9


def test_t_quantile_domain():
    with pytest.raises(ValueError):
        t_quantile(0.9, 0.0)
    for bad in (0.0, 1.0, 2.0):
        with pytest.raises(ValueError):
            t_quantile(bad, 5.0)


def test_t_cdf_non_integer_df():
    # df need not be integer; check against the monotone interpolation bound
    lo, mid, hi = t_cdf(1.3, 6.0), t_cdf(1.3, 6.5), t_cdf(1.3, 7.0)
    assert lo < mid < hi


def test_t_functions_reject_nan_and_infinite_df():
    for x, df in ((math.nan, 5.0), (1.0, math.nan), (1.0, math.inf)):
        with pytest.raises(ValueError):
            t_cdf(x, df)
    for p, df in ((math.nan, 5.0), (0.9, math.nan)):
        with pytest.raises(ValueError):
            t_quantile(p, df)
    assert t_cdf(math.inf, 5.0) == 1.0 and t_cdf(-math.inf, 5.0) == 0.0


# t_quantiles: t_quantile over an array of df ----------------------------------


def scalar_quantiles(p, dfs):
    return np.array([t_quantile(p, df) for df in dfs.tolist()])


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def test_t_quantiles_equal_t_quantile_at_every_prefix_df():
    # the OBM df k - isqrt(k) + 1 of every prefix of a 10^5-state run
    dfs = np.array([k - math.isqrt(k) + 1 for k in range(10, 100_001)], dtype=float)
    for p in (0.9, 0.975):
        assert same_bits(t_quantiles(p, dfs), scalar_quantiles(p, dfs))


@pytest.mark.parametrize("p", [0.1, 0.5, 0.975, 0.9875, 0.999])
def test_t_quantiles_equal_t_quantile_on_a_log_uniform_df_sweep(p):
    dfs = np.exp(np.random.default_rng(25).uniform(math.log(0.5), math.log(1e9), 20_000))
    assert same_bits(t_quantiles(p, dfs), scalar_quantiles(p, dfs))


def _series_is_kept(p, df):
    # t_quantile's own test: the term the series omits is below an ulp of t
    t, omitted = _cornish_fisher(-_STD_NORMAL.inv_cdf(min(p, 1.0 - p)), df)
    return omitted < _EPS * t


def _ulps_around(df, k=2000):
    return df + math.ulp(df) * np.arange(-k, k + 1.0)


@pytest.mark.parametrize("p,dfs", [
    # at p = 0.9, df 744 takes Newton steps and 745 keeps the series
    (0.9, np.array([744.0, 745.0])),
    (0.1, np.array([744.0, 745.0])),
    # numpy's r ** 5 is an ulp off Python's in some of these, so a series
    # spelled with a power would keep a df in the array that t_quantile sends
    # to Newton; the product r^2 r^2 r rounds alike in both
    (0.5893859429714858, _ulps_around(737.8813428946974)),
    (0.6153989974937344, _ulps_around(737.5919800648707)),
    (0.8533160401002506, _ulps_around(727.8946466154497)),
])
def test_t_quantiles_equal_t_quantile_across_the_series_boundary(p, dfs):
    kept = [_series_is_kept(p, df) for df in dfs.tolist()]
    assert any(kept) and not all(kept)
    assert same_bits(t_quantiles(p, dfs), scalar_quantiles(p, dfs))


def test_t_quantiles_at_infinite_df_is_the_normal_quantile():
    got = t_quantiles(0.9, [math.inf, 5.0])
    assert same_bits(got, np.array([t_quantile(0.9, math.inf), t_quantile(0.9, 5.0)]))
    assert got[0] == NormalDist().inv_cdf(0.9)


def test_t_quantiles_median_and_empty():
    assert same_bits(t_quantiles(0.5, [1.0, 3.5, 1954.0]), np.zeros(3))
    assert t_quantiles(0.9, []).shape == (0,)


@pytest.mark.parametrize("p,dfs", [
    (0.9, [5.0, 0.0]),
    (0.9, [-1.0, 5.0]),
    (0.9, [5.0, math.nan]),
    (0.0, [5.0]),
    (1.0, [5.0]),
    (math.nan, [5.0]),
    (1.5, [5.0, 0.0]),
])
def test_t_quantiles_raise_the_scalar_error(p, dfs):
    bad = next((df for df in dfs if not df > 0.0), dfs[0])
    with pytest.raises(ValueError) as scalar:
        t_quantile(p, bad)
    with pytest.raises(ValueError) as array:
        t_quantiles(p, np.array(dfs))
    assert str(array.value) == str(scalar.value)


@pytest.mark.parametrize("df", [1e-20, 1e-62, 1e-80, 1e-300, 1e-310, 1e-323, 5e-324])
@pytest.mark.parametrize("p", [0.9, 0.1])
def test_t_quantile_at_a_tiny_df_raises_the_documented_overflow(p, df):
    # r^5, t itself, df * tail or df / 2 leave the float range on the way
    for quantile in (lambda: t_quantile(p, df), lambda: t_quantiles(p, np.array([3.0, df]))):
        with pytest.raises(OverflowError, match=rf"^t quantile out of float range \(tail {min(p, 1 - p)}, df {df}\)$"):
            quantile()
