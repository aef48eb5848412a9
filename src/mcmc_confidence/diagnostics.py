"""Running-estimate diagnostics and density estimation for chain output.

Every ``running_*`` function returns one record per prefix length
k = 1..n, where record k depends only on the first k values and the last
record matches the corresponding full-chain computation exactly. The
standard-error sweeps group the prefixes by their sqroot batch size
b = isqrt(k), which is constant for k in [b^2, (b+1)^2 - 1], and make one
``mcse._prefix_sigma2`` call per group: the batch statistics of the group's
longest prefix and one scan of their dispersion, of which each prefix reads
the row the estimator itself reads, so prefix consistency is exact. A
group's window quantiles cost O(m log b) comparisons plus O(m b / 32) word
operations on its longest prefix m, all in numpy (see ``mcse``); the rest of
the group costs O(b^2), where re-reducing every prefix cost O(b^3). Standard
errors are NaN for prefixes shorter than the estimators' minimum sample
size.

The density estimators (kde_1d, kde_2d, rb_marginal_mu) share one Gaussian
kernel tile. It computes the kernel terms of 16 grid rows by one block of at
most 4096 samples, in place in buffers that fit in a core's cache, with the
same arithmetic, step for step, as the broadcast formula
exp(-0.5 z^2) / (sd sqrt(2 pi)). Terms whose exponent lies below -746 are
exactly +0.0 and are set without calling exp, which is several times slower
where its result underflows. kde_1d and both rb_marginal_mu variants take
one row-sum path, _gauss_sums: a grid point's density adds the blocks' row
sums in block order, and a tile computes only the samples within reach,
|grid - sample| <= 38.63 times the block's largest sd, beyond which the
exponent lies below -746. Each block is sorted once, and the samples out of
reach are left as +0.0 terms in their places, so every sum is bit for bit
the full tile's. kde_2d fills two (grid, block) kernel matrices tile by tile
and adds their products in block order. Memory is O(grid^2 + grid * block),
never O(grid * n). The tiles run in the calling thread: spread over threads,
their wall time would hang on whether another CPU is free.
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
    _prefix_sigma2,
    _quantile_probs,
    _type1_index,
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

# Samples per summation block. Each grid point's sum adds the blocks' partial
# sums in block order, so a different block size rounds differently and
# changes the bytes of every density CSV.
_KDE_BLOCK = 4096

# grid rows per tile: a tile and its scratch twin (16 x 4096 doubles, 512 KiB
# each) stay in one core's L2 cache
_TILE_ROWS = 16

# exp(t) is exactly +0.0 for every t below this (exp(-745.2) already is)
_EXP_ZERO_BELOW = -746.0

# |z| = |grid - mean| / sd beyond which -0.5 z^2 < _EXP_ZERO_BELOW, widened by
# a relative margin far above the rounding of z
_REACH_Z = math.sqrt(-2.0 * _EXP_ZERO_BELOW) * (1.0 + 1e-6)


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
    out = np.empty((x.size, len(probs)))
    prefix: list[float] = []
    for k, v in enumerate(x.tolist(), start=1):
        bisect.insort(prefix, v)
        for j, p in enumerate(probs):
            out[k - 1, j] = prefix[_type1_index(k, p) - 1]
    return out


def _running_se(x: np.ndarray, kind: str, probabilities=()) -> np.ndarray:
    # one column per statistic; NaN below MIN_SAMPLES
    out = np.full((x.size, len(probabilities) or 1), np.nan)
    for b, first, last in _sqroot_groups(x.size):
        k = np.arange(first, last + 1)
        out[first - 1 : last] = np.sqrt(_prefix_sigma2(x, b, kind, k, probabilities) / k[:, None])
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
    return _running_se(_apply_transform(x, g), meth)[:, 0]


def running_quantile_se(values, probabilities: Sequence[float]) -> np.ndarray:
    """Subsampling quantile standard errors per prefix; shape (n, k), NaN below
    the minimum sample size."""
    return _running_se(_chain_1d(values), "SUB", _quantile_probs(probabilities))


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
    with np.errstate(over="ignore", invalid="ignore"):
        xc = x - x.mean()
        denom = float(np.dot(xc, xc))
    if not math.isfinite(denom):
        raise ValueError("autocorrelation overflows the float range: the chain's squared deviations are too large")
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
    with np.errstate(over="ignore"):
        inv = 1.0 / y
    i = int(np.argmax(inv))  # the smallest y
    if inv[i] == math.inf:
        raise ValueError(f"latent value y = {y[i]} at index {i} is so small that 1/y overflows the float range")
    return running_mean(inv)


def _gauss_tile(rows, mean, sd, denom, out, scratch) -> None:
    """out[i, j] = exp(-0.5 * z * z) / denom[j] with z = (rows[i] - mean[j]) / sd[j].

    The arithmetic is the broadcast formula's, step for step. Where the
    exponent lies below _EXP_ZERO_BELOW the term is +0.0: multiplying the
    exponent by a 0/1 mask sends exp the cheap argument -0.0, and
    multiplying exp's 1.0 by the mask again gives 0.0, without paying exp's
    cost on results that underflow.
    """
    np.subtract(rows[:, None], mean, out=out)
    np.divide(out, sd, out=out)
    np.multiply(out, -0.5, out=scratch)
    np.multiply(scratch, out, out=out)
    lo = out.min()
    if lo < _EXP_ZERO_BELOW:
        if lo == -math.inf:  # z * z overflowed; -inf * 0 would be NaN
            np.maximum(out, 2 * _EXP_ZERO_BELOW, out=out)
        np.greater_equal(out, _EXP_ZERO_BELOW, out=scratch)
        np.multiply(out, scratch, out=out)
        np.exp(out, out=out)
        np.multiply(out, scratch, out=out)
    else:
        np.exp(out, out=out)
    np.divide(out, denom, out=out)


@np.errstate(over="ignore")  # z * z may overflow; _gauss_tile clamps it
def _gauss_sums(grid, mean, sd) -> np.ndarray:
    """Row sums over j of the normal densities of N(mean[j], sd[j]^2) at every grid point.

    ``mean`` and ``sd`` are per-sample arrays or scalars. A row sum adds the
    C-contiguous row sums of the _KDE_BLOCK blocks in block order, as one
    (grid, block) array per block would. A term whose mean lies farther than
    _REACH_Z times its block's largest sd from its grid point has an exponent
    below _EXP_ZERO_BELOW, so _gauss_tile would make it +0.0; it is skipped.
    Each block is argsorted by mean once, and each tile of grid rows computes
    the columns within reach of its rows, one searchsorted slice. A tile with
    every column in reach runs on the block in sample order; any other tile
    is scattered into a zeroed (rows, block) array, which then holds the
    whole tile's terms in their places. Either way the row sums are bit for
    bit those of the full tile.
    """
    mean, sd, denom = np.broadcast_arrays(np.atleast_1d(mean), sd, np.multiply(sd, _SQRT_2PI))
    acc = np.zeros(grid.size)
    buf = np.empty((2, _TILE_ROWS * _KDE_BLOCK))
    for c0 in range(0, mean.size, _KDE_BLOCK):
        cols = [a[c0 : c0 + _KDE_BLOCK] for a in (mean, sd, denom)]
        order = np.argsort(cols[0])
        # a broadcast scalar stays a stride-0 view, which numpy divides by as fast as by a scalar
        by_mean = [a[order] if a.strides[0] else a for a in cols]
        reach = _REACH_Z * by_mean[1].max()  # may overflow to inf: then every column is in reach
        tile = np.empty((_TILE_ROWS, order.size))
        for r0 in range(0, grid.size, _TILE_ROWS):
            rows = grid[r0 : r0 + _TILE_ROWS]
            lo = int(np.searchsorted(by_mean[0], rows.min() - reach, side="left"))
            hi = int(np.searchsorted(by_mean[0], rows.max() + reach, side="right"))
            if lo == hi:
                continue  # every term is +0.0, and so is every row sum
            out, scratch = (b[: rows.size * (hi - lo)].reshape(rows.size, hi - lo) for b in buf)
            if hi - lo == order.size:
                _gauss_tile(rows, *cols, out, scratch)
            else:
                _gauss_tile(rows, *(a[lo:hi] for a in by_mean), out, scratch)
                part = tile[: rows.size]
                part.fill(0.0)  # a memset, cheaper than scattering the zeros back after the sums
                part[:, order[lo:hi]] = out
                out = part
            acc[r0 : r0 + rows.size] += out.sum(axis=1)
    return acc


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
    theta the two coincide. The grid and y_bar must be finite and m >= 1.
    """
    theta = _chain_1d(theta_values)
    if np.any(theta <= 0.0):
        raise ValueError("theta values must be strictly positive")
    if not 1 <= m < math.inf:
        raise ValueError(f"sample size m must be finite and at least 1, got {m}")
    if not math.isfinite(y_bar):
        raise ValueError(f"y_bar must be finite, got {y_bar}")
    gx = np.asarray(grid, dtype=float)
    if not np.all(np.isfinite(gx)):
        raise ValueError("grid holds a non-finite value")
    flat = gx.reshape(-1)
    if variant == "plugin":
        dens = _gauss_sums(flat, y_bar, math.sqrt(float(np.mean(theta)) / m))
    elif variant == "mixture":
        dens = _gauss_sums(flat, y_bar, np.sqrt(theta / m)) / theta.size
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return Kde1D(x=gx, density=dens.reshape(gx.shape), bandwidth=None)


def silverman_bandwidth(values, factor: float = 0.9) -> float:
    """Reference-rule bandwidth factor * min(sd, IQR/1.34) * n^(-1/5).

    Falls back to the standard deviation when ties collapse the IQR; a
    constant sample, or one whose spread overflows the float range, has no
    usable bandwidth and raises.
    """
    x = _chain_1d(values)
    if x.size < 2:
        raise ValueError("bandwidth needs at least two samples")
    with np.errstate(over="ignore"):  # an overflowing sd loses to the IQR or raises below
        sd = float(np.std(x, ddof=1))
    q25, q75 = np.quantile(x, [0.25, 0.75])
    spread = min(sd, float(q75 - q25) / 1.34)
    if spread == 0.0:
        spread = sd
    if not math.isfinite(spread):
        raise ValueError(f"sample spread overflows the float range (sd {sd}, quartiles {q25}, {q75})")
    if spread <= 0.0:
        raise ValueError("sample is constant; kernel bandwidth would be zero")
    return factor * spread * x.size ** -0.2


def _grid(lo: float, hi: float, n: int) -> np.ndarray:
    """n evenly spaced points from lo to hi, whose span must be finite."""
    if not math.isfinite(hi - lo):
        raise ValueError(f"density grid [{lo}, {hi}] overflows the float range")
    return np.linspace(lo, hi, n)


def kde_1d(samples, n_grid: int = 512) -> Kde1D:
    """Gaussian-kernel density on an even grid spanning the data +/- 3 bandwidths."""
    x = _chain_1d(samples)
    if x.size < 2:
        raise ValueError("density estimation needs at least two samples")
    h = silverman_bandwidth(x)
    grid = _grid(float(x.min()) - 3.0 * h, float(x.max()) + 3.0 * h, n_grid)
    return Kde1D(x=grid, density=_gauss_sums(grid, x, h) / x.size, bandwidth=h)


def kde_2d(
    x_samples,
    y_samples,
    n_grid: int = 50,
    lims: Optional[tuple[float, float, float, float]] = None,
) -> Kde2D:
    """Product-Gaussian-kernel density on an n_grid x n_grid lattice.

    ``lims = (x_lo, x_hi, y_lo, y_hi)`` defaults to the data ranges and must
    be finite, as must each axis's span; density[i, j] is the estimate at
    (x_grid[i], y_grid[j]). The sum over samples adds one product of the
    (n_grid, block) kernel matrices per _KDE_BLOCK block, in block order, so
    memory is two such matrices, not two (n_grid, n) ones; a GEMM rounds by
    its operands' shapes, so the block size fixes the density's last bits.
    """
    x = _chain_1d(x_samples)
    y = _chain_1d(y_samples)
    if x.size != y.size:
        raise ValueError(f"coordinate lengths differ: {x.size} vs {y.size}")
    if x.size < 2:
        raise ValueError("density estimation needs at least two samples")
    # normal reference rule, used directly as the kernel sd on each axis
    bx = silverman_bandwidth(x, factor=1.06)
    by = silverman_bandwidth(y, factor=1.06)
    if lims is None:
        lims = (float(x.min()), float(x.max()), float(y.min()), float(y.max()))
    if not all(math.isfinite(v) for v in lims):
        raise ValueError(f"density limits must be finite, got {tuple(lims)}")
    gx = _grid(lims[0], lims[1], n_grid)
    gy = _grid(lims[2], lims[3], n_grid)
    dens = np.zeros((n_grid, n_grid))
    bufs = np.empty((2, n_grid * _KDE_BLOCK))
    scratch = np.empty(_TILE_ROWS * _KDE_BLOCK)
    for c0 in range(0, x.size, _KDE_BLOCK):
        c1 = min(c0 + _KDE_BLOCK, x.size)
        kx, ky = (b[: n_grid * (c1 - c0)].reshape(n_grid, c1 - c0) for b in bufs)
        with np.errstate(over="ignore"):  # z * z may overflow; _gauss_tile clamps it
            for k, grid, v, h in ((kx, gx, x, bx), (ky, gy, y, by)):
                for r0 in range(0, n_grid, _TILE_ROWS):
                    t = slice(r0, r0 + _TILE_ROWS)
                    _gauss_tile(grid[t], v[c0:c1], h, h * _SQRT_2PI, k[t], scratch[: k[t].size].reshape(k[t].shape))
        dens += kx @ ky.T
    dens /= x.size
    return Kde2D(x=gx, y=gy, density=dens, bandwidth_x=bx, bandwidth_y=by)
