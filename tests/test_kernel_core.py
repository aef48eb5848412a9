"""Property tests for the shared Gaussian-kernel core: kde_1d and both
rb_marginal_mu variants equal the plain broadcast formula bit for bit, with
each block's samples taken in stable ascending order of mean, and kde_2d
equals the sum of one broadcast-formula GEMM per sample block, on chains
whose far outliers make kernel terms underflow to zero, to subnormals, or
overflow the exponent to -inf. The row sums that skip the terms out of reach
equal the full sorted tiles' bit for bit at the edges of the reach, and kde_1d
is within 1e-13 of an exact sum of its terms."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mcmc_confidence import Rng, kde_1d, kde_2d, rb_marginal_mu
from mcmc_confidence.diagnostics import _EXP_ZERO_BELOW, _KDE_BLOCK, _REACH_Z, _SQRT_2PI, _TILE_ROWS, _gauss_sums

BLOCK_EDGES = [_KDE_BLOCK - 1, _KDE_BLOCK, _KDE_BLOCK + 1, 2 * _KDE_BLOCK + 1]
SIZES = st.one_of(st.sampled_from([2, 3] + BLOCK_EDGES), st.integers(2, 300))
FAR = st.sampled_from([38.0, 40.0, -1e3, 1e5, 3e153, -1e200, 1e200])
TINY_THETA = st.sampled_from([5e-324, 1e-300, 1e-4, 1e6])


def reference_pdf(grid, mean, sd):
    # the broadcast formula the kernel core replaces; z * z overflows to inf for far outliers,
    # and the term it gives, exp(-inf) = 0, is the one the core must match
    with np.errstate(over="ignore"):
        z = (grid - mean) / sd
        return np.exp(-0.5 * z * z) / (sd * _SQRT_2PI)


def reference_sums(grid, mean, sd):
    # one (grid, block) array per block, its samples in stable ascending order
    # of mean, its row sums added in block order
    mean, sd = np.broadcast_arrays(mean, sd)
    acc = np.zeros(grid.size)
    for start in range(0, mean.size, _KDE_BLOCK):
        block = start + np.argsort(mean[start : start + _KDE_BLOCK], kind="stable")
        acc += reference_pdf(grid[:, None], mean[None, block], sd[None, block]).sum(axis=1)
    return acc


def reference_kde_2d(gx, gy, x, y, bx, by):
    # one GEMM of broadcast-formula blocks per sample block, added in block order
    acc = np.zeros((gx.size, gy.size))
    for start in range(0, x.size, _KDE_BLOCK):
        block = slice(start, start + _KDE_BLOCK)
        acc += reference_pdf(gx[:, None], x[None, block], bx) @ reference_pdf(gy[:, None], y[None, block], by).T
    return acc / x.size


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@st.composite
def chains(draw, far):
    n = draw(SIZES, label="n")
    x = Rng(draw(st.integers(0, 10**6), label="seed")).normals(n)
    for _ in range(draw(st.integers(0, min(n - 1, 4)), label="outliers")):
        x[draw(st.integers(0, n - 1))] = draw(far)
    return x


@given(x=chains(FAR), n_grid=st.integers(1, 40))
def test_kde_1d_matches_broadcast_formula(x, n_grid):
    est = kde_1d(x, n_grid=n_grid)
    assert same_bits(est.density, reference_sums(est.x, x, est.bandwidth) / x.size)


@given(x=chains(FAR), seed=st.integers(0, 10**6), n_grid=st.integers(1, 12))
def test_kde_2d_matches_broadcast_formula(x, seed, n_grid):
    y = Rng(seed).normals(x.size)
    est = kde_2d(x, y, n_grid=n_grid)
    assert same_bits(est.density, reference_kde_2d(est.x, est.y, x, y, est.bandwidth_x, est.bandwidth_y))


def test_kde_2d_is_accurate_against_an_exact_sum():
    # every term is nonnegative, so the blocked GEMM sums are within about
    # n * 2^-53 of the exact sum; seen: 4.2e-16 at this size
    n = 3 * _KDE_BLOCK + 7
    x, y = Rng(3).normals(n), np.square(Rng(4).normals(n)) + 1.0
    est = kde_2d(x, y, n_grid=12)
    kx = reference_pdf(est.x[:, None], x[None, :], est.bandwidth_x)
    ky = reference_pdf(est.y[:, None], y[None, :], est.bandwidth_y)
    exact = np.array([[math.fsum(kx[i] * ky[j]) for j in range(est.y.size)] for i in range(est.x.size)]) / n
    assert np.all(exact > 0.0)
    assert np.max(np.abs(est.density - exact) / exact) < 1e-13


@pytest.mark.parametrize("shape", ["normal", "shifted chi-square"])
def test_kde_1d_is_accurate_against_an_exact_sum(shape):
    # every term is nonnegative, so the blocked pairwise sums are within about
    # n * 2^-53 of the exact sum; seen: 4.2e-16 and 3.3e-16 at this size
    n = 3 * _KDE_BLOCK + 7
    x = Rng(3).normals(n) if shape == "normal" else np.square(Rng(4).normals(n)) + 1.0
    est = kde_1d(x, n_grid=64)
    terms = reference_pdf(est.x[:, None], x[None, :], est.bandwidth)
    exact = np.array([math.fsum(row) for row in terms]) / x.size
    assert np.all(exact > 0.0)
    assert np.max(np.abs(est.density - exact) / exact) < 1e-13


@given(seed=st.integers(0, 10**6), n=st.sampled_from([300] + BLOCK_EDGES))
def test_sums_do_not_depend_on_the_sample_order_within_a_block(seed, n):
    # a tenth of the samples spread wide, so the IQR, not the sd (whose sum
    # depends on the order), sets the bandwidth, and tiles skip part of each block
    x = Rng(seed).normals(n)
    x[::10] *= 40.0
    shuffled = x.copy()
    perm = np.random.default_rng(seed)
    for start in range(0, n, _KDE_BLOCK):
        shuffled[start : start + _KDE_BLOCK] = perm.permutation(x[start : start + _KDE_BLOCK])
    grid = np.linspace(-60.0, 60.0, 70)
    assert same_bits(_gauss_sums(grid, shuffled, 0.5), _gauss_sums(grid, x, 0.5))
    est, est_shuffled = kde_1d(x, n_grid=70), kde_1d(shuffled, n_grid=70)
    assert est.bandwidth == est_shuffled.bandwidth
    assert same_bits(est_shuffled.density, est.density)


def test_kde_2d_memory_scales_with_grid_times_block_not_grid_times_n():
    # two whole 50 x n kernel matrices would take 160 MB
    x, y = Rng(5).normals(200_000), Rng(6).normals(200_000)
    tracemalloc.start()
    try:
        kde_2d(x, y, n_grid=50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


@given(
    x=chains(TINY_THETA),
    y_bar=st.floats(-5.0, 5.0),
    span=st.sampled_from([1.0, 50.0, 1e6]),
    n_grid=st.integers(1, 40),
    m=st.integers(1, 30),
)
def test_rb_marginal_mu_matches_broadcast_formula(x, y_bar, span, n_grid, m):
    theta = np.abs(x) + 1e-3
    grid = y_bar + np.linspace(-span, span, n_grid)
    sd = math.sqrt(float(np.mean(theta)) / m)
    plugin = reference_pdf(grid, y_bar, sd)
    mixture = reference_sums(grid, y_bar, np.sqrt(theta / m)) / theta.size
    assert same_bits(rb_marginal_mu(theta, grid, m, y_bar, variant="plugin").density, plugin)
    assert same_bits(rb_marginal_mu(theta, grid, m, y_bar, variant="mixture").density, mixture)


@pytest.mark.parametrize("y_bar", [1.0, 0.37, 0.5])
def test_rb_marginal_mu_on_the_cli_grid_matches_broadcast_formula(y_bar):
    # the gibbs-normal grid holds many grid points at equal distance from y_bar,
    # which share one kernel row; each still equals its own broadcast-formula row
    grid = np.linspace(-3.0, 4.0, 701)
    theta = np.exp(Rng(57).normals(2 * _KDE_BLOCK + 5)) + 0.5
    assert np.unique(np.abs(grid - y_bar)).size < grid.size
    plugin = reference_pdf(grid, y_bar, math.sqrt(float(np.mean(theta)) / 11))
    mixture = reference_sums(grid, y_bar, np.sqrt(theta / 11)) / theta.size
    assert same_bits(rb_marginal_mu(theta, grid, 11, y_bar, variant="plugin").density, plugin)
    assert same_bits(rb_marginal_mu(theta, grid, 11, y_bar, variant="mixture").density, mixture)


def test_overflowing_exponent_gives_zero_terms():
    # z * z overflows to -inf for the far points; their terms are 0, not NaN
    x = np.array([0.0, 1.0, 2.0, 3.0, 1e200, -1e200])
    est = kde_1d(x, n_grid=9)
    assert np.all(np.isfinite(est.density))
    assert same_bits(est.density, reference_sums(est.x, x, est.bandwidth) / x.size)


def test_far_outlier_raises_no_floating_point_warning():
    # z * z and the sd's squares overflow on purpose; the densities stay finite
    x, y = Rng(11).normals(5000), Rng(12).normals(5000)
    x[17] = 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.all(np.isfinite(kde_1d(x, n_grid=64).density))
        assert np.all(np.isfinite(kde_2d(x, y, n_grid=8).density))


def ulps_about(v, k=3):
    near = [v]
    for direction in (-np.inf, np.inf):
        u = v
        for _ in range(k):
            u = np.nextafter(u, direction)
            near.append(u)
    return near


# (grid, mean, sd) whose terms the reach-limited row sums must get bit for bit
def reach_cases():
    grid = np.linspace(-1.0, 1.0, 3 * _TILE_ROWS + 5)
    for sd in (1e-3, 0.05):
        # about the reach, the exponent's zero cut and the last nonzero term
        # exp(-745), on both sides of the grid and inside it
        dists = (_REACH_Z * sd, math.sqrt(-2.0 * _EXP_ZERO_BELOW) * sd, math.sqrt(2.0 * 745.0) * sd)
        edges = [u for d in dists for a in (grid[0] - d, grid[-1] + d, grid[7] + d) for u in ulps_about(a)]
        yield pytest.param(grid, np.array(edges), sd, id=f"ulps about the reach, sd {sd}")
    # per-sample sds: the reach is the largest sd's, so the samples at the edges of
    # its reach whose own sd is 50 times smaller give +0.0 terms inside the slice
    sds = np.resize([0.05, 1e-3], len(edges))
    yield pytest.param(grid, np.array(edges), sds, id="ulps about the largest sd's reach")
    # two far clusters: the tiles between them have no sample in reach
    clusters = np.concatenate([Rng(7).normals(_KDE_BLOCK + 1), 1e4 + Rng(8).normals(_KDE_BLOCK)])
    yield pytest.param(np.linspace(-50.0, 1e4 + 50.0, 200), clusters, 1.0, id="clusters")
    # the reach overflows to inf: every column is in reach
    yield pytest.param(np.linspace(-1e307, 1e307, _TILE_ROWS + 1), Rng(9).normals(300) * 1e307, 5e306, id="infinite reach")
    yield pytest.param(np.linspace(-1e-308, 1e-308, _TILE_ROWS + 1), Rng(10).normals(300) * 1e-308, 1e-310, id="subnormal sd")
    # varying means and sds spread over two orders of magnitude, two blocks wide
    n = 2 * _KDE_BLOCK + 3
    sds = 0.05 * np.exp(Rng(14).normals(n))
    yield pytest.param(np.linspace(-4e3, 4e3, 300), Rng(13).normals(n) * 1e3, sds, id="per-sample sd")


@pytest.mark.parametrize("grid, mean, sd", reach_cases())
def test_reach_limited_row_sums_match_full_tiles(grid, mean, sd):
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        assert same_bits(_gauss_sums(grid, mean, sd), reference_sums(grid, mean, sd))


@given(seed=st.integers(0, 10**6), n=st.sampled_from(BLOCK_EDGES), n_grid=st.sampled_from([_TILE_ROWS, _TILE_ROWS + 1, 70]))
def test_reach_limited_row_sums_match_across_block_and_tile_edges(seed, n, n_grid):
    mean = Rng(seed).normals(n)
    mean[: n // 3] *= 40.0  # a wide spread, so tiles skip part of each block
    grid = np.linspace(-60.0, 60.0, n_grid)
    for sd in (0.5, 0.5 * np.exp(Rng(seed + 1).normals(n) / 4)):  # one sd, then one per sample
        assert same_bits(_gauss_sums(grid, mean, sd), reference_sums(grid, mean, sd))
