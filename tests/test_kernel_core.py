"""Property tests for the shared Gaussian-kernel core: kde_1d, kde_2d and both
rb_marginal_mu variants equal the plain broadcast formula bit for bit, on
chains whose far outliers make kernel terms underflow to zero, to subnormals, or overflow the exponent to -inf."""

import math

import numpy as np
from hypothesis import given, strategies as st

from mcmc_confidence import Rng, kde_1d, kde_2d, rb_marginal_mu
from mcmc_confidence.diagnostics import _KDE_BLOCK, _SQRT_2PI

SIZES = st.one_of(st.sampled_from([2, 3, _KDE_BLOCK - 1, _KDE_BLOCK, _KDE_BLOCK + 1]), st.integers(2, 300))
FAR = st.sampled_from([38.0, 40.0, -1e3, 1e5, 3e153, -1e200, 1e200])
TINY_THETA = st.sampled_from([5e-324, 1e-300, 1e-4, 1e6])


def reference_pdf(grid, mean, sd):
    # the broadcast formula the kernel core replaces
    z = (grid - mean) / sd
    return np.exp(-0.5 * z * z) / (sd * _SQRT_2PI)


def reference_sums(grid, mean, sd):
    # one (grid, block) array per block, its row sums added in block order
    mean, sd = np.broadcast_arrays(mean, sd)
    acc = np.zeros(grid.size)
    for start in range(0, mean.size, _KDE_BLOCK):
        block = slice(start, start + _KDE_BLOCK)
        acc += reference_pdf(grid[:, None], mean[None, block], sd[None, block]).sum(axis=1)
    return acc


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
    kx = reference_pdf(est.x[:, None], x[None, :], est.bandwidth_x)
    ky = reference_pdf(est.y[:, None], y[None, :], est.bandwidth_y)
    assert same_bits(est.density, kx @ ky.T / x.size)


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


def test_overflowing_exponent_gives_zero_terms():
    # z * z overflows to -inf for the far points; their terms are 0, not NaN
    x = np.array([0.0, 1.0, 2.0, 3.0, 1e200, -1e200])
    est = kde_1d(x, n_grid=9)
    assert np.all(np.isfinite(est.density))
    assert same_bits(est.density, reference_sums(est.x, x, est.bandwidth) / x.size)
