"""Running-estimate diagnostics and density estimation for chain output.

Every ``running_*`` function returns one record per prefix length
k = 1..n, where record k depends only on the first k values and the last
record matches the corresponding full-chain computation exactly. The
standard-error sweeps group the prefixes by their sqroot batch size
b = isqrt(k), which is constant for k in [b^2, (b+1)^2 - 1]. Each group
computes its batch statistics once, on the group's longest prefix, and
every prefix in it applies the estimators' own dispersion formula to the
leading rows of those statistics: the first k // b block means, or the
first k - b + 1 window means or window quantiles. Those rows are the very
values the estimator would compute on the prefix, reduced in the same
order, so prefix consistency is exact, not approximate. Standard errors
are NaN for prefixes shorter than the estimators' minimum sample size.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .mcse import (
    MIN_SAMPLES,
    Transform,
    _apply_transform,
    _as_values,
    _batch_means,
    _prefix_sums,
    _quantile_probs,
    _sigma2,
    _type1_index,
    _window_means,
    _window_quantiles,
)

__all__ = [
    "Kde1D",
    "Kde2D",
    "running_mean",
    "running_quantiles",
    "running_mcse",
    "running_quantile_se",
    "acf",
    "rb_second_moment",
    "rb_marginal_mu",
    "silverman_bandwidth",
    "kde_1d",
    "kde_2d",
]

_SQRT_2PI = 2.506628274631000502415765284811045

# samples per evaluation block when accumulating kernel sums
_KDE_BLOCK = 4096


@dataclass(frozen=True)
class Kde1D:
    x: np.ndarray
    density: np.ndarray
    bandwidth: Optional[float] = None


@dataclass(frozen=True)
class Kde2D:
    x: np.ndarray
    y: np.ndarray
    density: np.ndarray  # density[i, j] evaluated at (x[i], y[j])
    bandwidth_x: float = 0.0
    bandwidth_y: float = 0.0


def _chain_1d(values) -> np.ndarray:
    x = _as_values(values)
    if x.size == 0:
        raise ValueError("expected a nonempty one-dimensional chain")
    return x


def _sqroot_groups(n: int):
    """(b, first k, last k) for the prefixes MIN_SAMPLES..n sharing b = isqrt(k)."""
    k = MIN_SAMPLES
    while k <= n:
        b = math.isqrt(k)
        last = min((b + 1) ** 2 - 1, n)
        yield b, k, last
        k = last + 1


def running_mean(values) -> np.ndarray:
    """Cumulative mean of every prefix, via one cumulative sum."""
    x = _chain_1d(values)
    return np.cumsum(x) / np.arange(1, x.size + 1)


def running_quantiles(values, probabilities: Sequence[float]) -> np.ndarray:
    """Type-1 quantiles of every prefix; shape (n, len(probabilities)).

    An insertion-sorted prefix makes each record an O(log k) lookup while
    selecting exactly the same order statistics a fresh full computation
    would.
    """
    x = _chain_1d(values)
    probs = [float(p) for p in probabilities]
    for p in probs:
        if not 0.0 < p <= 1.0:
            raise ValueError(f"quantile probability must lie in (0, 1], got {p}")
    out = np.empty((x.size, len(probs)))
    prefix: list[float] = []
    for k, v in enumerate(x.tolist(), start=1):
        bisect.insort(prefix, v)
        for j, p in enumerate(probs):
            out[k - 1, j] = prefix[_type1_index(k, p) - 1]
    return out


def running_mcse(values, method: str = "BM", g: Transform = None) -> np.ndarray:
    """Standard error of the prefix mean for every prefix (sqroot batches).

    Entries below the estimators' minimum sample size are NaN. ``g`` must be
    elementwise, as for the estimators; it is applied once to the whole chain.
    """
    x = _chain_1d(values)
    meth = method.upper()
    if meth not in ("BM", "OBM"):
        raise ValueError(f"method specified invalid (meth={method})")
    obm = meth == "OBM"
    gx = _apply_transform(x, g)
    cs = _prefix_sums(gx) if obm else None
    out = np.full(x.size, np.nan)
    for b, first, last in _sqroot_groups(x.size):
        stats = _window_means(cs, b, last) if obm else _batch_means(gx, b, last // b)
        for k in range(first, last + 1):
            a = k - b + 1 if obm else k // b
            out[k - 1] = math.sqrt(_sigma2(stats[:a], b, a, k if obm else None) / k)
    return out


def running_quantile_se(values, probabilities: Sequence[float]) -> np.ndarray:
    """Subsampling quantile standard errors per prefix; shape (n, k), NaN below
    the minimum sample size."""
    x = _chain_1d(values)
    probs = _quantile_probs(probabilities)
    out = np.full((x.size, len(probs)), np.nan)
    for b, first, last in _sqroot_groups(x.size):
        stats = _window_quantiles(x[:last], b, probs)
        for k in range(first, last + 1):
            out[k - 1] = np.sqrt(_sigma2(stats[: k - b + 1], b, k - b + 1, k) / k)
    return out


def acf(values, max_lag: Optional[int] = None) -> np.ndarray:
    """Sample autocorrelations r_0..r_max_lag.

    r_k = sum_{t<=n-k} (x_t - xbar)(x_{t+k} - xbar) / sum (x_t - xbar)^2;
    default max_lag is floor(10 * log10(n)).
    """
    x = _chain_1d(values)
    n = x.size
    if max_lag is None:
        max_lag = int(math.floor(10.0 * math.log10(n)))
        max_lag = min(max_lag, n - 1)
    if not 0 <= max_lag < n:
        raise ValueError(f"max_lag must satisfy 0 <= max_lag < n, got {max_lag} (n={n})")
    xc = x - x.mean()
    denom = float(np.dot(xc, xc))
    if denom == 0.0:
        raise ValueError("autocorrelation is undefined for a zero-variance chain")
    return np.array([float(np.dot(xc[: n - k], xc[k:])) / denom for k in range(max_lag + 1)])


def rb_second_moment(y_values) -> np.ndarray:
    """Running conditional-expectation estimate of E[X^2] from the latent y.

    Var(X | Y=y) = 1/y, so the running mean of 1/y estimates the second
    moment with the x-randomness integrated out.
    """
    y = _chain_1d(y_values)
    if np.any(y <= 0.0):
        raise ValueError("latent values must be strictly positive")
    return np.cumsum(1.0 / y) / np.arange(1, y.size + 1)


def _gauss_pdf_grid(grid: np.ndarray, mean, sd) -> np.ndarray:
    z = (grid - mean) / sd
    return np.exp(-0.5 * z * z) / (sd * _SQRT_2PI)


def rb_marginal_mu(
    theta_values,
    grid,
    m: int,
    y_bar: float,
    variant: str = "plugin",
) -> Kde1D:
    """Conditional-density estimate of the mu marginal on a grid.

    ``plugin`` evaluates one normal density N(y_bar, mean(theta)/m);
    ``mixture`` averages N(y_bar, theta_i/m) over the chain. With a single
    theta the two coincide.
    """
    theta = _chain_1d(theta_values)
    if np.any(theta <= 0.0):
        raise ValueError("theta values must be strictly positive")
    gx = np.asarray(grid, dtype=float)
    if variant == "plugin":
        dens = _gauss_pdf_grid(gx, y_bar, math.sqrt(float(np.mean(theta)) / m))
    elif variant == "mixture":
        acc = np.zeros_like(gx)
        sds = np.sqrt(theta / m)
        for start in range(0, theta.size, _KDE_BLOCK):
            s = sds[start : start + _KDE_BLOCK]
            acc += _gauss_pdf_grid(gx[:, None], y_bar, s[None, :]).sum(axis=1)
        dens = acc / theta.size
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return Kde1D(x=gx, density=dens, bandwidth=None)


def silverman_bandwidth(values, factor: float = 0.9) -> float:
    """Reference-rule bandwidth factor * min(sd, IQR/1.34) * n^(-1/5).

    Falls back to the standard deviation when ties collapse the IQR; a
    constant sample has no usable bandwidth and raises.
    """
    x = _chain_1d(values)
    if x.size < 2:
        raise ValueError("bandwidth needs at least two samples")
    sd = float(np.std(x, ddof=1))
    q25, q75 = np.quantile(x, [0.25, 0.75])
    spread = min(sd, float(q75 - q25) / 1.34)
    if spread == 0.0:
        spread = sd
    if spread <= 0.0:
        raise ValueError("sample is constant; kernel bandwidth would be zero")
    return factor * spread * x.size ** -0.2


def kde_1d(samples, n_grid: int = 512) -> Kde1D:
    """Gaussian-kernel density on an even grid spanning the data +/- 3 bandwidths."""
    x = _chain_1d(samples)
    if x.size < 2:
        raise ValueError("density estimation needs at least two samples")
    h = silverman_bandwidth(x)
    grid = np.linspace(float(x.min()) - 3.0 * h, float(x.max()) + 3.0 * h, n_grid)
    acc = np.zeros(n_grid)
    for start in range(0, x.size, _KDE_BLOCK):
        xs = x[start : start + _KDE_BLOCK]
        acc += _gauss_pdf_grid(grid[:, None], xs[None, :], h).sum(axis=1)
    return Kde1D(x=grid, density=acc / x.size, bandwidth=h)


def _axis_bandwidth(v: np.ndarray) -> float:
    # normal reference rule, used directly as the kernel sd on each axis
    h = silverman_bandwidth(v, factor=1.06)
    return h


def kde_2d(
    x_samples,
    y_samples,
    n_grid: int = 50,
    lims: Optional[tuple[float, float, float, float]] = None,
) -> Kde2D:
    """Product-Gaussian-kernel density on an n_grid x n_grid lattice.

    ``lims = (x_lo, x_hi, y_lo, y_hi)`` defaults to the data ranges;
    density[i, j] is the estimate at (x_grid[i], y_grid[j]).
    """
    x = _chain_1d(x_samples)
    y = _chain_1d(y_samples)
    if x.size != y.size:
        raise ValueError(f"coordinate lengths differ: {x.size} vs {y.size}")
    if x.size < 2:
        raise ValueError("density estimation needs at least two samples")
    bx = _axis_bandwidth(x)
    by = _axis_bandwidth(y)
    if lims is None:
        lims = (float(x.min()), float(x.max()), float(y.min()), float(y.max()))
    gx = np.linspace(lims[0], lims[1], n_grid)
    gy = np.linspace(lims[2], lims[3], n_grid)
    kx = _gauss_pdf_grid(gx[:, None], x[None, :], bx)
    ky = _gauss_pdf_grid(gy[:, None], y[None, :], by)
    dens = kx @ ky.T / x.size
    return Kde2D(x=gx, y=gy, density=dens, bandwidth_x=bx, bandwidth_y=by)
