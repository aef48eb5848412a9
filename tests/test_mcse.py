import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mcmc_confidence import (
    Ar1Params,
    Rng,
    ar1_run,
    batch_layout,
    ci_mean,
    ci_quantiles,
    mcse_bm,
    mcse_obm,
    quantiles_type1,
    running_mcse,
    running_quantile_se,
    subsample_quantile_se,
)

X16 = np.arange(1.0, 17.0)
X10 = np.arange(1.0, 11.0)

# hand-checked constants for the 1..16 fixture with batch size 4
BM_SE_16 = math.sqrt(320.0 / 3.0 / 16.0)  # 2.5819888974716110
OBM_SE_16 = math.sqrt(16.0 * 4.0 * 182.0 / (12.0 * 13.0) / 16.0)  # 2.1602468994692869
QT_09_DF13 = 1.3501712887800512


# brute-force oracles ---------------------------------------------------------


def bm_se_oracle(vals, b):
    vals = [float(v) for v in vals]
    n = len(vals)
    a = n // b
    means = [sum(vals[k * b : (k + 1) * b]) / b for k in range(a)]
    mu = sum(means) / a
    sigma2 = b * sum((m - mu) ** 2 for m in means) / (a - 1)
    return math.sqrt(sigma2 / n)


def obm_se_oracle(vals, b):
    vals = [float(v) for v in vals]
    n = len(vals)
    a = n - b + 1
    means = [sum(vals[k : k + b]) / b for k in range(a)]
    mu = sum(means) / a
    sigma2 = n * b * sum((m - mu) ** 2 for m in means) / ((a - 1) * a)
    return math.sqrt(sigma2 / n)


def type1_oracle(vals, p):
    xs = sorted(float(v) for v in vals)
    j = max(1, math.ceil(len(xs) * p))
    return xs[j - 1]


def subsample_se_oracle(vals, probs):
    vals = [float(v) for v in vals]
    n = len(vals)
    b = math.isqrt(n)
    a = n - b + 1
    out = []
    for p in probs:
        qs = [type1_oracle(vals[k : k + b], p) for k in range(a)]
        mu = sum(qs) / a
        sigma2 = n * b * sum((q - mu) ** 2 for q in qs) / ((a - 1) * a)
        out.append(math.sqrt(sigma2 / n))
    return out


# batch_layout ----------------------------------------------------------------


def test_batch_layout_sqroot():
    assert batch_layout(2000, "sqroot") == (44, 45)
    assert batch_layout(16, "sqroot") == (4, 4)


def test_batch_layout_cuberoot_guard():
    assert batch_layout(1000, "cuberoot") == (10, 100)
    for c in range(2, 30):
        assert batch_layout(c**3, "cuberoot")[0] == c
        assert batch_layout(c**3 - 1, "cuberoot")[0] == c - 1


def test_batch_layout_fixed():
    assert batch_layout(100, 7) == (7, 14)
    assert batch_layout(100, 7.9) == (7, 14)  # numeric sizes are floored
    for size in (5, 5.0, np.int64(5), np.float32(5), np.uint8(5)):
        assert batch_layout(100, size) == (5, 20)


def test_batch_layout_errors():
    with pytest.raises(ValueError, match="batch size invalid"):
        batch_layout(100, 1)
    for size in (0, math.inf, math.nan):
        with pytest.raises(ValueError, match="batch size invalid"):
            batch_layout(100, size)
    with pytest.raises(ValueError):
        batch_layout(0, "sqroot")
    with pytest.raises(ValueError):
        batch_layout(100, "bogus")
    for flag in (True, np.True_):  # a bool is not a batch size
        with pytest.raises(ValueError, match="unknown batch policy"):
            batch_layout(100, flag)


# BM / OBM ---------------------------------------------------------------------


def test_bm_hand_example():
    est = mcse_bm(X16, 4)
    assert est.se == pytest.approx(BM_SE_16, rel=1e-12)
    assert est.se == pytest.approx(bm_se_oracle(X16, 4), rel=1e-12)
    assert est.sigma2_hat == pytest.approx(320.0 / 3.0, rel=1e-12)
    assert (est.b, est.a, est.n, est.method) == (4, 4, 16, "BM")
    assert est.warning  # n < 1000


def test_obm_hand_example():
    est = mcse_obm(X16, 4)
    assert est.se == pytest.approx(OBM_SE_16, rel=1e-12)
    assert est.se == pytest.approx(obm_se_oracle(X16, 4), rel=1e-12)
    assert est.sigma2_hat == pytest.approx(11648.0 / 156.0, rel=1e-12)
    assert (est.b, est.a, est.method) == (4, 13, "OBM")


def test_estimate_carries_the_mean_its_se_belongs_to():
    x = ar1_run(2000, Ar1Params(0.5), Rng(3)).values
    assert mcse_obm(x, g=np.square).mean == float(np.mean(np.square(x)))
    assert mcse_bm(x).mean == float(np.mean(x))
    for method in ("BM", "OBM"):
        assert ci_mean(x, method, g=np.square).center == float(np.mean(np.square(x)))
    # under MIN_SAMPLES nothing is estimated, so the transform is never applied
    assert ci_mean(np.zeros(9), "BM", g=np.log) is None


def test_transform_scales_bm_exactly():
    est = mcse_bm(X16, 4, g=lambda v: 2.0 * v)
    assert est.se == pytest.approx(2.0 * BM_SE_16, rel=1e-12)
    assert est.se == pytest.approx(5.163977794943222, rel=1e-10)


def test_constant_chain_gives_zero_se():
    const = np.full(37, 3.25)
    assert mcse_bm(const).se == 0.0
    assert mcse_obm(const).se == 0.0


@pytest.mark.parametrize("n", range(0, 10))
def test_short_chains_return_none(n):
    x = np.arange(float(n))
    assert mcse_bm(x) is None
    assert mcse_obm(x) is None
    assert subsample_quantile_se(x, (0.5,)) is None
    assert ci_mean(x, "OBM") is None
    assert ci_quantiles(x, (0.5,)) is None


def test_warning_flag_threshold():
    rng = Rng(1)
    assert mcse_bm(rng.normals(999)).warning is True
    assert mcse_bm(rng.normals(1000)).warning is False


def test_obm_rejects_oversized_batch():
    with pytest.raises(ValueError):
        mcse_obm(np.arange(12.0), 12)
    with pytest.raises(ValueError):
        mcse_obm(np.arange(12.0), 20)


def test_bm_needs_two_batches():
    with pytest.raises(ValueError):
        mcse_bm(np.arange(12.0), 8)


def test_invalid_policy_and_method():
    with pytest.raises(ValueError):
        mcse_bm(X16, "bogus")
    with pytest.raises(ValueError):
        ci_mean(X16, "spectral")


def test_sqroot_policy_defaults():
    x = Rng(3).normals(2000)
    est = mcse_bm(x)
    assert (est.b, est.a) == (44, 45)
    est = mcse_obm(x)
    assert (est.b, est.a) == (44, 2000 - 44 + 1)


chain_values = st.lists(
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    min_size=10,
    max_size=60,
)


@given(vals=chain_values, c=st.floats(0.01, 100.0), d=st.floats(-1e5, 1e5), neg=st.booleans())
def test_affine_equivariance(vals, c, d, neg):
    if neg:
        c = -c
    x = np.array(vals)
    for fn in (mcse_bm, mcse_obm):
        base = fn(x)
        scaled = fn(c * x + d)
        assert (scaled.b, scaled.a) == (base.b, base.a)
        assert math.isclose(scaled.se, abs(c) * base.se, rel_tol=1e-9, abs_tol=1e-9)


@given(vals=chain_values)
def test_bm_obm_match_oracles(vals):
    x = np.array(vals)
    b = math.isqrt(x.size)
    if b < 2:
        b = 2
    assert mcse_bm(x, b).se == pytest.approx(bm_se_oracle(x, b), rel=1e-9, abs=1e-12)
    assert mcse_obm(x, b).se == pytest.approx(obm_se_oracle(x, b), rel=1e-9, abs=1e-12)


def test_obm_recovers_unit_scale_for_iid_chain():
    # i.i.d. N(0,1): the long-run sd is 1, so se * sqrt(n) should sit near 1
    x = Rng(321).normals(10**5)
    scaled = mcse_obm(x).se * math.sqrt(x.size)
    assert 0.95 <= scaled <= 1.05


def test_bm_obm_agree_for_long_iid_chains():
    # same long i.i.d. chain: the two estimators should land close together
    for seed in range(20):
        x = Rng(5000 + seed).normals(10**5)
        bm = mcse_bm(x).se
        obm = mcse_obm(x).se
        assert abs(bm - obm) / obm < 0.15


# type-1 quantiles -------------------------------------------------------------


def test_quantile_type1_examples():
    assert quantiles_type1(X10, (0.25, 0.75, 1.0)).tolist() == [3.0, 8.0, 10.0]
    shuffled = np.array([7.0, 1.0, 5.0, 3.0, 9.0, 2.0])
    assert quantiles_type1(shuffled, (1.0,))[0] == 9.0


def test_quantile_type1_errors():
    with pytest.raises(ValueError):
        quantiles_type1(np.array([]), (0.5,))
    for bad in (0.0, -0.5, 1.01):
        with pytest.raises(ValueError):
            quantiles_type1(X10, (bad,))


@given(vals=st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=50))
def test_quantile_type1_membership_and_monotonicity(vals):
    x = np.array(vals)
    probs = [0.05, 0.25, 0.5, 0.75, 0.95, 1.0]
    qs = quantiles_type1(x, probs)
    for q in qs:
        assert q in x
    assert all(q2 >= q1 for q1, q2 in zip(qs, qs[1:]))
    assert np.array_equal(qs, [quantiles_type1(x, (p,))[0] for p in probs])


@given(vals=st.lists(st.floats(-100.0, 100.0, allow_nan=False), min_size=1, max_size=40),
       p=st.floats(0.01, 1.0))
def test_quantile_type1_matches_oracle(vals, p):
    assert quantiles_type1(np.array(vals), (p,))[0] == type1_oracle(vals, p)


# subsampling -------------------------------------------------------------------


def test_subsampling_hand_example():
    qset = subsample_quantile_se(X16, (0.5,))
    # window medians of the 13 length-4 windows are 2..14
    assert qset.ses[0] == pytest.approx(OBM_SE_16, rel=1e-12)
    assert qset.b == 4 and qset.a == 13
    assert qset.point_estimates[0] == 8.0


def test_subsampling_constant_chain():
    qset = subsample_quantile_se(np.full(25, 1.5), (0.25, 0.75))
    assert np.all(qset.ses == 0.0)


def test_subsampling_is_obm_with_quantile_functional():
    # replace each window by its quantile, then push that series through the
    # OBM dispersion formula by hand
    x = Rng(17).normals(60)
    n, b = 60, math.isqrt(60)
    a = n - b + 1
    for p in (0.25, 0.5, 0.75):
        window_q = [type1_oracle(x[k : k + b], p) for k in range(a)]
        mu = sum(window_q) / a
        sigma2 = n * b * sum((q - mu) ** 2 for q in window_q) / ((a - 1) * a)
        expect = math.sqrt(sigma2 / n)
        got = subsample_quantile_se(x, (p,)).ses[0]
        assert got == pytest.approx(expect, rel=1e-10)


@given(seed=st.integers(0, 10_000), n=st.integers(10, 80))
def test_subsampling_matches_oracle(seed, n):
    x = Rng(seed).normals(n)
    probs = (0.25, 0.5, 0.75)
    qset = subsample_quantile_se(x, probs)
    oracle = subsample_se_oracle(x, probs)
    assert np.allclose(qset.ses, oracle, rtol=1e-9, atol=1e-12)
    assert np.array_equal(qset.point_estimates, quantiles_type1(x, probs))


def test_subsampling_se_shrinks_with_n():
    # quadrupling the chain should roughly halve the quantile ses
    ratios = []
    for seed in range(30):
        params = Ar1Params(0.5)
        short = ar1_run(2000, params, Rng(40_000 + seed)).values
        long = ar1_run(8000, params, Rng(80_000 + seed)).values
        se_short = subsample_quantile_se(short, (0.25, 0.75)).ses
        se_long = subsample_quantile_se(long, (0.25, 0.75)).ses
        assert np.all(se_short > 0.0) and np.all(np.isfinite(se_short))
        ratios.append(se_long / se_short)
    mean_ratio = float(np.mean(ratios))
    assert 0.35 < mean_ratio < 0.65


# intervals ---------------------------------------------------------------------


def test_ci_mean_constant_chain():
    iv = ci_mean(np.full(50, 2.5), "OBM", level=0.9)
    assert iv.half_width == 0.0
    assert iv.lower == iv.upper == 2.5


def test_ci_mean_hand_example():
    iv = ci_mean(X16, "OBM", level=0.9, policy=4)
    assert iv.df == 13
    assert iv.center == 8.5
    assert iv.half_width == pytest.approx(QT_09_DF13 * OBM_SE_16, rel=1e-9)
    assert iv.half_width == pytest.approx(2.9167, abs=2e-4)
    assert iv.lower == pytest.approx(8.5 - iv.half_width)
    assert iv.upper == pytest.approx(8.5 + iv.half_width)


def test_ci_mean_bm_degrees_of_freedom():
    iv = ci_mean(X16, "BM", level=0.9, policy=4)
    assert iv.df == 3  # a - 1


def test_ci_mean_order_of_magnitude_for_persistent_chain():
    chain = ar1_run(2000, Ar1Params(0.95), Rng(1976))
    iv = ci_mean(chain.values, "OBM", level=0.9)
    # same order as the half-width a 0.45-ish reference run produces
    assert 0.1 < iv.half_width < 1.5


def test_ci_quantiles_single_probability_reduces():
    x = Rng(23).normals(500)
    single = ci_quantiles(x, (0.25,), level=0.9, bonferroni=False)[0]
    qset = subsample_quantile_se(x, (0.25,))
    assert single.se == pytest.approx(float(qset.ses[0]), rel=1e-12)
    plain_bonf = ci_quantiles(x, (0.25,), level=0.9, bonferroni=True)[0]
    assert plain_bonf.half_width == single.half_width  # k = 1: no adjustment


def test_ci_quantiles_bonferroni_level():
    x = Rng(23).normals(500)
    ivs = ci_quantiles(x, (0.25, 0.75), level=0.975, bonferroni=True)
    assert all(iv.level == pytest.approx(0.9875, abs=1e-12) for iv in ivs)


def test_ci_quantiles_bonferroni_contains_plain():
    x = ar1_run(2000, Ar1Params(0.5), Rng(31)).values
    plain = ci_quantiles(x, (0.25, 0.75), level=0.9, bonferroni=False)
    bonf = ci_quantiles(x, (0.25, 0.75), level=0.9, bonferroni=True)
    for p, b in zip(plain, bonf):
        assert b.lower < p.lower and b.upper > p.upper


# chains whose squares overflow ------------------------------------------------

# finite, but their squared deviations exceed the float range
BIG = ar1_run(2000, Ar1Params(0.5, 1e200), Rng(3)).values


@pytest.mark.parametrize(
    "estimate",
    [
        lambda x: mcse_bm(x),
        lambda x: mcse_bm(x, "cuberoot"),
        lambda x: mcse_obm(x),
        lambda x: subsample_quantile_se(x, (0.5,)),
        lambda x: ci_mean(x, "BM"),
        lambda x: ci_quantiles(x, bonferroni=True),
    ],
)
def test_overflowing_sigma2_is_a_value_error(estimate):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^sigma2 overflows the float range: .* \(batch size \d+\)$"):
            estimate(BIG)


@pytest.mark.parametrize("g", [np.square, lambda v: np.exp(-v), np.log])
def test_non_finite_transform_is_a_value_error(g):
    x = np.concatenate((np.ones(20), [-1e200], np.ones(20)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^transform overflows or is undefined at index 20: g\(-1e\+200\) = "):
            mcse_obm(x, g=g)
        with pytest.raises(ValueError, match="transform overflows"):
            ci_mean(x, "BM", g=g)


def test_large_finite_chains_scale_exactly():
    # below the overflow the check rejects nothing: a power-of-two scale
    # rounds the same way at every step, so it carries through bit for bit
    x = ar1_run(2000, Ar1Params(0.5), Rng(3)).values
    scale = 2.0**480
    assert mcse_bm(x * scale).se == mcse_bm(x).se * scale
    assert mcse_obm(x * scale).se == mcse_obm(x).se * scale
    assert np.array_equal(subsample_quantile_se(x * scale).ses, subsample_quantile_se(x).ses * scale)


def test_sigma2_whose_products_overflow_is_scaled_back_exactly():
    # at 2^500, k * b * S overflows although sigma2 itself fits; the rows are
    # computed again on a power-of-two-scaled chain and scaled back bit for bit
    x = ar1_run(10**4, Ar1Params(0.9), Rng(3)).values
    big = x * 2.0**500
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for estimate in (mcse_bm, mcse_obm):
            assert estimate(big).sigma2_hat == estimate(x).sigma2_hat * 2.0**1000
        assert np.array_equal(subsample_quantile_se(big).ses, subsample_quantile_se(x).ses * 2.0**500)
        # at 2^480 a sweep's b = 22 group overflows at some prefixes and not
        # at others; every row stays the unscaled one times the scale
        head, scale = x[:3000], 2.0**480
        assert np.array_equal(running_mcse(head * scale, "OBM"), running_mcse(head, "OBM") * scale, equal_nan=True)
        ses = running_quantile_se(head * scale, (0.5,))
        assert np.array_equal(ses, running_quantile_se(head, (0.5,)) * scale, equal_nan=True)
        assert ses[-1, 0] == subsample_quantile_se(head * scale, (0.5,)).ses[0]
