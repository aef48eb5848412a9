import math
import warnings
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mcmc_confidence import (
    Ar1Params,
    NormalPosteriorParams,
    Rng,
    acf,
    ar1_run,
    kde_1d,
    kde_2d,
    mcse_bm,
    mcse_obm,
    nv_gibbs_run,
    quantiles_type1,
    rb_marginal_mu,
    rb_second_moment,
    running_mcse,
    running_mean,
    running_quantile_se,
    running_quantiles,
    silverman_bandwidth,
    subsample_quantile_se,
    tda_run,
)

# running series ---------------------------------------------------------------


def test_running_mean_examples():
    assert np.allclose(running_mean([1.0, 2.0, 3.0]), [1.0, 1.5, 2.0], rtol=0, atol=0)
    assert np.array_equal(running_mean(np.full(20, 4.25)), np.full(20, 4.25))


def test_running_mean_final_matches_full_mean():
    x = Rng(1).normals(5000)
    series = running_mean(x)
    assert abs(series[-1] - float(np.mean(x))) <= 1e-12 * max(1.0, abs(float(np.mean(x))))


def test_running_quantiles_median_example():
    out = running_quantiles([5.0, 1.0, 3.0], [0.5])
    assert np.array_equal(out[:, 0], [5.0, 1.0, 3.0])


def test_running_quantiles_max_tracks_sorted_input():
    x = np.arange(1.0, 31.0)
    out = running_quantiles(x, [1.0])
    assert np.array_equal(out[:, 0], x)


def test_running_quantiles_final_matches_direct():
    x = Rng(2).normals(800)
    probs = (0.25, 0.5, 0.75)
    out = running_quantiles(x, probs)
    assert np.array_equal(out[-1], quantiles_type1(x, probs))


@given(seed=st.integers(0, 1000), n=st.integers(1, 200))
def test_running_quantiles_prefix_consistency(seed, n):
    x = Rng(seed).normals(n)
    probs = (0.25, 0.75)
    out = running_quantiles(x, probs)
    for k in {1, max(1, n // 2), n}:
        assert np.array_equal(out[k - 1], quantiles_type1(x[:k], probs))


def test_running_quantiles_validates_probabilities():
    with pytest.raises(ValueError):
        running_quantiles([1.0, 2.0], [0.0])


def test_running_mcse_sentinel_rows():
    x = Rng(3).normals(40)
    for method in ("BM", "OBM"):
        out = running_mcse(x, method)
        assert np.all(np.isnan(out[:9]))
        assert np.all(np.isfinite(out[9:]))


def test_running_mcse_constant_chain():
    out = running_mcse(np.full(25, 7.0), "OBM")
    assert np.all(out[9:] == 0.0)


def test_running_mcse_final_matches_direct_call():
    x = Rng(4).normals(300)
    assert running_mcse(x, "BM")[-1] == mcse_bm(x, "sqroot").se
    assert running_mcse(x, "OBM")[-1] == mcse_obm(x, "sqroot").se


@given(seed=st.integers(0, 1000), n=st.integers(10, 200))
def test_running_mcse_prefix_consistency(seed, n):
    x = Rng(seed).normals(n)
    bm = running_mcse(x, "BM")
    obm = running_mcse(x, "OBM")
    for k in {10, max(10, n // 2), n}:
        assert bm[k - 1] == mcse_bm(x[:k], "sqroot").se
        assert obm[k - 1] == mcse_obm(x[:k], "sqroot").se


def test_running_mcse_rejects_unknown_method():
    with pytest.raises(ValueError):
        running_mcse(np.arange(20.0), "spectral")


def test_running_quantile_se_basics():
    const = running_quantile_se(np.full(30, 2.0), (0.5,))
    assert np.all(np.isnan(const[:9]))
    assert np.all(const[9:] == 0.0)

    x = ar1_run(300, Ar1Params(0.5), Rng(5)).values
    out = running_quantile_se(x, (0.25, 0.75))
    assert np.all(np.isnan(out[:9]))
    assert np.all(np.isfinite(out[9:]))
    assert np.all(out[9:] > 0.0)
    assert np.array_equal(out[-1], subsample_quantile_se(x, (0.25, 0.75)).ses)


@given(seed=st.integers(0, 500), n=st.integers(10, 120))
def test_running_quantile_se_prefix_consistency(seed, n):
    x = Rng(seed).normals(n)
    out = running_quantile_se(x, (0.5,))
    for k in {10, max(10, n // 2), n}:
        assert out[k - 1, 0] == subsample_quantile_se(x[:k], (0.5,)).ses[0]


# autocorrelation ----------------------------------------------------------------


def test_acf_lag_zero_is_one():
    assert acf(Rng(6).normals(100), max_lag=0)[0] == 1.0


def test_acf_iid_lag_one_small():
    r = acf(Rng(7).normals(10**5), max_lag=1)
    assert abs(float(r[1])) < 0.01


def test_acf_ar1_geometric_decay():
    x = ar1_run(10**5, Ar1Params(0.95), Rng(8)).values
    r = acf(x, max_lag=3)
    assert abs(float(r[1]) - 0.95) < 0.01
    assert abs(float(r[2]) - 0.95**2) < 0.02
    assert abs(float(r[3]) - 0.95**3) < 0.02


def test_acf_default_lag_count():
    x = Rng(9).normals(2000)
    assert acf(x).size == int(math.floor(10 * math.log10(2000))) + 1


@given(vals=st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=3, max_size=60))
def test_acf_bounded_by_one(vals):
    x = np.array(vals)
    if float(np.var(x)) == 0.0:
        return
    r = acf(x, max_lag=min(5, x.size - 1))
    assert np.all(np.abs(r) <= 1.0 + 1e-12)


def test_acf_errors():
    with pytest.raises(ValueError):
        acf(np.full(50, 1.0))
    with pytest.raises(ValueError):
        acf(np.arange(10.0), max_lag=10)
    with pytest.raises(ValueError):
        acf(np.arange(10.0), max_lag=-1)


def test_overflowing_chain_is_a_value_error():
    x = ar1_run(400, Ar1Params(0.5, 1e200), Rng(8)).values
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^autocorrelation overflows the float range"):
            acf(x)
        for sweep in (lambda v: running_mcse(v, "BM"), lambda v: running_mcse(v, "OBM"),
                      lambda v: running_mcse(v / 1e100, "OBM", g=np.exp),
                      lambda v: running_quantile_se(v, (0.25, 0.75))):
            with pytest.raises(ValueError, match="overflows"):
                sweep(x)


# conditional-expectation estimators ----------------------------------------------


def test_rb_second_moment_examples():
    assert np.array_equal(rb_second_moment([0.5, 0.5]), [2.0, 2.0])
    assert np.allclose(rb_second_moment([1.0, 2.0, 4.0]), [1.0, 0.75, 7.0 / 12.0], rtol=1e-15)
    with pytest.raises(ValueError):
        rb_second_moment([1.0, 0.0, 2.0])
    with pytest.raises(ValueError):
        rb_second_moment([1.0, -2.0])
    # 1/y overflows: the error names the latent value, and no warning comes first
    with pytest.raises(ValueError, match=r"latent value y = 5e-324 at index 1"):
        rb_second_moment([1.0, 5e-324])


def test_rb_second_moment_long_run():
    chain = tda_run(10**5, Rng(31))
    series = rb_second_moment(chain.values[:, 1])
    assert abs(float(series[-1]) - 2.0) < 0.1


def test_rb_marginal_single_theta_variants_coincide():
    grid = np.linspace(-3.0, 4.0, 101)
    a = rb_marginal_mu([2.0], grid, m=11, y_bar=1.0, variant="plugin")
    b = rb_marginal_mu([2.0], grid, m=11, y_bar=1.0, variant="mixture")
    assert np.array_equal(a.density, b.density)


def test_rb_marginal_plugin_peak_and_pdf_consistency():
    theta = np.exp(Rng(10).normals(400, 1.5, 0.5))
    m, y_bar = 11, 1.0
    grid = np.array([y_bar - 1.0, y_bar, y_bar + 2.0])
    out = rb_marginal_mu(theta, grid, m=m, y_bar=y_bar, variant="plugin")
    sd = math.sqrt(float(np.mean(theta)) / m)
    assert out.density[1] == pytest.approx(0.3989422804014327 / sd, rel=1e-12)
    for g, d in zip(grid, out.density):
        assert d == pytest.approx(NormalDist(y_bar, sd).pdf(float(g)), rel=1e-12)


def test_rb_marginal_mixture_integrates_to_one():
    theta = nv_gibbs_run(2000, NormalPosteriorParams(), Rng(100)).values[:, 1]
    m, y_bar = 11, 1.0
    # +/- 8 sd grid around y_bar using the largest mixture component sd
    sd_max = math.sqrt(float(np.max(theta)) / m)
    grid = np.linspace(y_bar - 8.0 * sd_max, y_bar + 8.0 * sd_max, 4001)
    out = rb_marginal_mu(theta, grid, m=m, y_bar=y_bar, variant="mixture")
    assert abs(float(np.trapezoid(out.density, grid)) - 1.0) < 1e-3


def test_rb_marginal_mixture_permutation_invariant():
    theta = np.exp(Rng(11).normals(500, 1.5, 0.5))
    grid = np.linspace(-2.0, 4.0, 201)
    a = rb_marginal_mu(theta, grid, m=11, y_bar=1.0, variant="mixture")
    b = rb_marginal_mu(theta[::-1].copy(), grid, m=11, y_bar=1.0, variant="mixture")
    assert np.allclose(a.density, b.density, rtol=1e-12, atol=1e-15)


def test_rb_marginal_plugin_depends_only_on_theta_mean():
    grid = np.linspace(-2.0, 4.0, 51)
    a = rb_marginal_mu([1.0, 3.0], grid, m=11, y_bar=1.0, variant="plugin")
    b = rb_marginal_mu([2.0, 2.0], grid, m=11, y_bar=1.0, variant="plugin")
    assert np.array_equal(a.density, b.density)


def test_rb_marginal_validation():
    grid = np.linspace(-1.0, 1.0, 11)
    with pytest.raises(ValueError):
        rb_marginal_mu([1.0, -1.0], grid, m=11, y_bar=1.0)
    with pytest.raises(ValueError):
        rb_marginal_mu([1.0], grid, m=11, y_bar=1.0, variant="bogus")


@pytest.mark.parametrize("variant", ["plugin", "mixture"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rb_marginal_rejects_non_finite_grid_and_y_bar(variant, bad):
    grid = np.linspace(-1.0, 1.0, 11)
    grid[4] = bad
    with pytest.raises(ValueError, match="grid"):
        rb_marginal_mu([1.0, 2.0], grid, m=11, y_bar=1.0, variant=variant)
    with pytest.raises(ValueError, match="y_bar"):
        rb_marginal_mu([1.0, 2.0], np.linspace(-1.0, 1.0, 11), m=11, y_bar=bad, variant=variant)


@pytest.mark.parametrize("variant", ["plugin", "mixture"])
@pytest.mark.parametrize("m", [0, -2, 0.5, math.nan, math.inf])
def test_rb_marginal_rejects_sample_size_below_one(variant, m):
    with pytest.raises(ValueError, match="sample size m"):
        rb_marginal_mu([1.0, 2.0], np.linspace(-1.0, 1.0, 11), m=m, y_bar=1.0, variant=variant)


# kernel density estimation -------------------------------------------------------


def test_kde_1d_standard_normal_density_at_zero():
    x = Rng(12).normals(10**5)
    est = kde_1d(x)
    assert est.x.size == 512 and est.density.size == 512
    at_zero = est.density[int(np.argmin(np.abs(est.x)))]
    assert abs(float(at_zero) - 0.3989) < 0.02


def test_kde_1d_integrates_to_about_one():
    x = Rng(13).normals(20_000)
    est = kde_1d(x)
    assert abs(float(np.trapezoid(est.density, est.x)) - 1.0) < 0.01


def test_kde_1d_translation_equivariance():
    x = Rng(14).normals(3000)
    shift = 11.5
    a = kde_1d(x)
    b = kde_1d(x + shift)
    assert np.allclose(b.x, a.x + shift, rtol=0, atol=1e-9)
    assert np.allclose(b.density, a.density, rtol=1e-9, atol=1e-12)


def test_kde_1d_grid_spans_three_bandwidths():
    x = Rng(15).normals(500)
    est = kde_1d(x)
    assert est.x[0] == pytest.approx(float(x.min()) - 3.0 * est.bandwidth)
    assert est.x[-1] == pytest.approx(float(x.max()) + 3.0 * est.bandwidth)


def test_kde_1d_rejects_degenerate_input():
    with pytest.raises(ValueError):
        kde_1d(np.full(100, 2.0))
    with pytest.raises(ValueError):
        kde_1d(np.array([1.0]))


@pytest.mark.parametrize("n_grid", [1, 5, 512])
def test_kde_1d_rejects_a_grid_that_overflows(n_grid):
    # min - 3h and max + 3h are finite, but the span between them is not
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="overflows"):
            kde_1d([-1e308, 0.0, 1.0, 2.0, 1e308], n_grid=n_grid)


def test_kde_2d_independent_normals():
    rng = Rng(16)
    x = rng.normals(10**5)
    y = rng.normals(10**5)
    est = kde_2d(x, y, n_grid=50, lims=(-3.0, 3.0, -3.0, 3.0))
    assert est.density.shape == (50, 50)
    assert np.all(est.density >= 0.0)
    i = int(np.argmin(np.abs(est.x)))
    j = int(np.argmin(np.abs(est.y)))
    assert abs(float(est.density[i, j]) - 1.0 / (2.0 * math.pi)) < 0.02


def test_kde_2d_swap_transposes():
    rng = Rng(17)
    x = rng.normals(2000)
    y = 0.5 * x + rng.normals(2000)
    a = kde_2d(x, y, n_grid=25, lims=(-2.0, 2.0, -3.0, 3.0))
    b = kde_2d(y, x, n_grid=25, lims=(-3.0, 3.0, -2.0, 2.0))
    assert np.allclose(a.density, b.density.T, rtol=1e-12, atol=1e-15)


def test_kde_2d_validation():
    with pytest.raises(ValueError):
        kde_2d(np.arange(10.0), np.arange(9.0))
    with pytest.raises(ValueError):
        kde_2d(np.full(50, 1.0), np.arange(50.0))


@pytest.mark.parametrize("lims", [None, (-1e308, 1e308, 0.0, 3.0), (0.0, 3.0, 1.7e308, -1.7e308)])
def test_kde_2d_rejects_a_grid_that_overflows(lims):
    # every limit is finite, but the span of one axis is not
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="density grid .* overflows"):
            kde_2d([-1e308, 0.0, 1.0, 1e308], [0.0, 1.0, 2.0, 3.0], n_grid=3, lims=lims)


@pytest.mark.parametrize("values", [[-1.7e308, 1.7e308], [0.0] * 20 + [1e200, -1e200]])
def test_silverman_bandwidth_names_an_overflowing_spread(values):
    # the IQR overflows in the first sample; ties zero it in the second, leaving an infinite sd
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="spread overflows"):
            silverman_bandwidth(values)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_kde_2d_rejects_non_finite_limits(bad):
    for i in range(4):
        lims = [-2.0, 2.0, -3.0, 3.0]
        lims[i] = bad
        with pytest.raises(ValueError, match="limits must be finite"):
            kde_2d(np.arange(50.0), np.arange(50.0) % 7, n_grid=5, lims=tuple(lims))
