"""Monte Carlo standard errors for Markov chain output.

Implements the three windowed long-run-variance estimators this package is
built around:

* batch means (BM): non-overlapping blocks of length b,
  sigma2 = b * sum((Ybar_k - muhat)^2) / (a - 1) with muhat the mean of the
  a block means;
* overlapping batch means (OBM): all a = n - b + 1 sliding windows,
  sigma2 = n * b * sum((Ybar_k - muhat)^2) / ((a - 1) * a);
* subsampling for quantiles: the OBM recipe with the type-1 empirical
  quantile substituted for the window mean.

All three share one core, ``_prefix_sigma2``: the batch statistics of a
chain (``_batch_stats``: block means; window means from one sequential
prefix sum; window quantiles), one prefix scan of their dispersion,
``_sum_sq_scan``, and the sigma2 formula of each kind.

Window quantiles are exact order statistics read from bitsets. Every
window that starts in block j, x[jb : (j+1)b], lies inside the pair
x[jb : jb+2b], so one argsort per pair ranks all of its windows' values. A
window is then the set of its values' sorted slots in the pair: the OR of
block j's one-hot slot words from its start on, and of block j+1's words
before its end, both from one OR-accumulate. Its order statistic of rank r
(from 0) sits at the bitset's (r+1)-th set bit, found by popcounts. All
n - b + 1 windows cost O(n log b) comparisons plus O(n * ceil(2b / 64))
word operations in numpy, where selecting within every window afresh costs
O(n b). Pairs go through in chunks whose bitsets hold about
``_BITSET_WORDS`` words (0.5 MB), so beyond the output and one padded copy
of x a call needs a few MB whatever n is. One pair's bitsets, b^2 / 16
words, pass that bound only for b above about 1000, and are at most
x.nbytes / 16 for the sqroot batch size.

A prefix's batch statistics are the leading rows of the whole chain's, and
row r of the O(a) scan depends only on rows 0..r, so one scan serves every
prefix with the same batch size, bit for bit: a direct call reads one row
of it, the ``running_*`` sweeps in ``diagnostics`` one row per prefix.

Every sigma2 is computed on the chain scaled by a power of two to unit
magnitude and scaled back, so sigma2(x * 2^k) is sigma2(x) * 2^2k rounded
once wherever x * 2^k keeps the bits of x, and only a sigma2 that itself
overflows the float range raises.

Every standard error is sqrt(sigma2 / n). Chains shorter than
``MIN_SAMPLES`` do not produce a number: estimators return ``None`` (the
absent-value sentinel; the CLI serializes it as "NA"). Chains shorter
than ``SMALL_SAMPLE_WARN`` are flagged via ``warning=True`` on the result.
Chains holding NaN or +/-inf are rejected with ``ValueError``, and so are
a sigma2 that overflows the float range and a transform that is not finite
at some value of the chain.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .distributions import t_quantile

__all__ = [
    "McseEstimate",
    "QuantileSeSet",
    "Interval",
    "batch_layout",
    "mcse_bm",
    "mcse_obm",
    "quantiles_type1",
    "subsample_quantile_se",
    "ci_mean",
    "ci_quantiles",
]

MIN_SAMPLES = 10
SMALL_SAMPLE_WARN = 1000

# "sqroot" | "cuberoot" | an explicit batch size (> 1)
BatchPolicy = Union[str, int, float]

Transform = Optional[Callable[[np.ndarray], np.ndarray]]

@dataclass(frozen=True)
class McseEstimate:
    """Standard error of the chain mean plus the layout that produced it, and
    the mean of g(x) that ``se`` belongs to."""

    se: float
    sigma2_hat: float
    b: int
    a: int
    n: int
    method: str
    warning: bool
    mean: float


@dataclass(frozen=True)
class QuantileSeSet:
    """Subsampling standard errors for a set of marginal quantiles."""

    probabilities: tuple
    point_estimates: np.ndarray
    ses: np.ndarray
    b: int
    a: int
    n: int
    warning: bool


@dataclass(frozen=True)
class Interval:
    """Two-sided t interval: center +/- half_width with the stated df.

    ``b`` and ``a`` are the batch size and batch (window) count of the
    estimate behind ``se``.
    """

    center: float
    se: float
    half_width: float
    lower: float
    upper: float
    df: float
    level: float
    method: str
    b: int
    a: int
    probability: Optional[float] = None


def _floor_cbrt(n: int) -> int:
    # integer correction so perfect cubes (1000 -> 10) never round down
    c = int(round(n ** (1.0 / 3.0)))
    while c > 1 and c * c * c > n:
        c -= 1
    while (c + 1) ** 3 <= n:
        c += 1
    return c


def batch_layout(n: int, policy: BatchPolicy = "sqroot") -> tuple[int, int]:
    """Pick (b, a): batch size and batch count for a chain of length n."""
    if n < 1:
        raise ValueError(f"chain length must be positive, got {n}")
    if policy == "sqroot":
        b = math.isqrt(n)
    elif policy == "cuberoot":
        b = _floor_cbrt(n)
    elif isinstance(policy, numbers.Real) and not isinstance(policy, bool):
        if not 2 <= policy < math.inf:  # floor(policy) <= 1, inf or nan
            raise ValueError(f"batch size invalid (bs={policy})")
        b = int(math.floor(policy))
    else:
        raise ValueError(f"unknown batch policy {policy!r}")
    return b, n // b


def _as_values(values) -> np.ndarray:
    x = np.asarray(values, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"expected a one-dimensional chain, got shape {x.shape}")
    finite = np.isfinite(x)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"chain holds a non-finite value ({x[i]}) at index {i}")
    return x


def _apply_transform(x: np.ndarray, g: Transform) -> np.ndarray:
    if g is None:
        return x
    with np.errstate(over="ignore", invalid="ignore"):
        gx = np.asarray(g(x), dtype=float)
    if gx.shape != x.shape:
        raise ValueError("transform must be elementwise (shape-preserving)")
    finite = np.isfinite(gx)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"transform overflows or is undefined at index {i}: g({x[i]}) = {gx[i]}")
    return gx


def _running_means(d: np.ndarray) -> np.ndarray:
    """Mean of rows 0..r of d for every r: a sequential cumsum / count, each
    add's exact rounding error put back (Knuth's TwoSum), so the means stay
    within about an ulp where a plain cumsum drifts a rounding per row."""
    m = np.cumsum(d, axis=0)
    # err[j]: the exact rounding error of the add m[j + 1] = m[j] + d[j + 1]
    step = m[1:] - m[:-1]
    err = m[1:] - step
    np.subtract(m[:-1], err, out=err)
    np.subtract(d[1:], step, out=step)
    err += step
    m[1:] += np.cumsum(err, axis=0, out=err)
    del step, err
    m /= np.arange(1, len(d) + 1, dtype=float).reshape((-1,) + (1,) * (d.ndim - 1))
    return m


def _sum_sq_scan(stats: np.ndarray) -> np.ndarray:
    """S[r], the sum of squared deviations of rows 0..r of stats from their mean.

    Welford's update (Technometrics 4, 1962) on d = s - s[0], with m the
    running means of d: S[0] = 0 and S[r] = S[r-1] + (d[r] - m[r-1]) *
    (d[r] - m[r]). All sums are sequential cumsums, so row r depends only on
    rows 0..r. It stays accurate where C2 - C1^2 / a cancels (Chan, Golub &
    LeVeque, Am. Stat. 37, 1983), and as d[0] = 0 makes S >= m^2, no step's
    rounding takes it below zero. Over a burn-in transient at a = 1e6, plain
    cumsum means put S 1e-12 off, ``_running_means`` 4e-14.
    """
    # at most four buffers the size of stats, reused in place
    d = stats - stats[0]
    m = _running_means(d)
    step = d[1:] - m[:-1]
    np.subtract(d[1:], m[1:], out=d[1:])
    d[1:] *= step
    # d[0] is +0.0, so S[0] = 0 and no S is -0.0
    return np.cumsum(d, axis=0, out=d)


class _Layout(NamedTuple):
    # the fields McseEstimate and QuantileSeSet share
    b: int
    a: int
    n: int
    warning: bool


def _batch_count(k, b: int, kind: str):
    # batches of a length-k prefix: non-overlapping blocks, or sliding windows
    return k // b if kind == "BM" else k - b + 1


def _layout(n: int, policy: BatchPolicy, kind: str) -> Optional[_Layout]:
    """The batches of a length-n chain, of which there must be two, or None
    when n < MIN_SAMPLES."""
    if n < MIN_SAMPLES:
        return None
    b = batch_layout(n, policy)[0]
    a = _batch_count(n, b, kind)
    if a < 2:
        raise ValueError(f"batch size {b} leaves fewer than two batches for n={n}")
    return _Layout(b, a, n, n < SMALL_SAMPLE_WARN)


def _batch_stats(x: np.ndarray, b: int, kind: str, n: int, probabilities=()) -> np.ndarray:
    """Statistics of the length-b batches of x[:n], one row per batch: block
    means ("BM") or window means ("OBM") in one column, or one window
    quantile per probability ("SUB")."""
    if kind == "SUB":
        return _window_quantiles(x[:n], b, probabilities)
    if kind == "BM":
        return x[: n // b * b].reshape(-1, b).mean(axis=1, keepdims=True)
    # cs[k] = x[0] + ... + x[k-1]; cumsum adds sequentially, so the sums of a
    # prefix are a prefix of the sums
    cs = np.concatenate(([0.0], np.cumsum(x[:n])))
    return ((cs[b:] - cs[:-b]) / b)[:, None]


def _unit_exponent(x: np.ndarray) -> int:
    """e with 2^e just above max|x|, so x * 2^-e lies in (-1, 1).

    A power of two rounds the same at every step, so a dispersion of
    x * 2^-e scaled back by 2^2e is the one an unbounded exponent range
    would give, rounded once. It cannot overflow, and only deviations below
    about 2^-511 max|x| lose bits, where their squares underflow.
    """
    return math.frexp(float(max(x.max(), -x.min())))[1]


def _prefix_sigma2(x: np.ndarray, b: int, kind: str, ks: np.ndarray, probabilities=()) -> np.ndarray:
    """sigma2 of every prefix x[:k], k in the ascending array ks, each holding
    two or more batches of size b; one row per prefix, one column per statistic.

    One scan of the longest prefix's statistics serves them all: prefix k,
    with a = _batch_count(k, b, kind) batches, reads row a - 1 and takes
    b * S / (a - 1) for BM blocks, k * b * S / ((a - 1) * a) for OBM and
    subsampling windows. Everything up to that formula runs on the longest
    prefix scaled to unit magnitude (``_unit_exponent``), and sigma2 is
    scaled back: sigma2(x * 2^k) is sigma2(x) * 2^2k rounded once, bit for
    bit. A sigma2 beyond the float range raises ValueError. A prefix whose
    max|x| has the longest prefix's unit exponent keeps the bits of a direct
    call, which is how the ``running_*`` sweeps group their prefixes.
    """
    x = x[: ks[-1]]
    e = _unit_exponent(x)
    k = ks[:, None]
    a = _batch_count(k, b, kind)
    # the scaled chain is a temporary, freed before the scan allocates
    ss = _sum_sq_scan(_batch_stats(np.ldexp(x, -e), b, kind, x.size, probabilities))[a[:, 0] - 1]
    with np.errstate(over="ignore"):
        sigma2 = np.ldexp(b * ss / (a - 1) if kind == "BM" else k * b * ss / ((a - 1) * a), 2 * e)
    if not np.isfinite(sigma2).all():
        raise ValueError(f"sigma2 overflows the float range: the chain's squared deviations are too large "
                         f"(batch size {b})")
    return sigma2


def _mcse(values, policy: BatchPolicy, g: Transform, kind: str) -> Optional[McseEstimate]:
    x = _as_values(values)
    lay = _layout(x.size, policy, kind)
    if lay is None:
        return None
    gx = _apply_transform(x, g)
    sigma2 = float(_prefix_sigma2(gx, lay.b, kind, np.array([lay.n]))[0, 0])
    return McseEstimate(se=math.sqrt(sigma2 / lay.n), sigma2_hat=sigma2, method=kind, mean=float(np.mean(gx)),
                        **lay._asdict())


def mcse_bm(values, policy: BatchPolicy = "sqroot", g: Transform = None) -> Optional[McseEstimate]:
    """Batch-means standard error of mean(g(x)); None when n < MIN_SAMPLES."""
    return _mcse(values, policy, g, "BM")


def mcse_obm(values, policy: BatchPolicy = "sqroot", g: Transform = None) -> Optional[McseEstimate]:
    """Overlapping-batch-means standard error; None when n < MIN_SAMPLES."""
    return _mcse(values, policy, g, "OBM")


def _type1_index(n, p: float):
    """The 1-based slot max(1, ceil(n p)) of the type-1 p-quantile among n sorted
    values, for an int or an int array n; ValueError unless p lies in (0, 1]."""
    if not 0.0 < p <= 1.0:
        raise ValueError(f"quantile probability must lie in (0, 1], got {p}")
    return np.maximum(1, np.ceil(n * p)).astype(np.int64)


def quantiles_type1(values, probabilities: Sequence[float]) -> np.ndarray:
    """Inverse-empirical-CDF quantiles: the ceil(n*p)-th order statistic for
    each probability p, sharing one sort."""
    x = _as_values(values)
    if x.size == 0:
        raise ValueError("cannot take a quantile of an empty chain")
    xs = np.sort(x)
    return np.array([xs[_type1_index(x.size, p) - 1] for p in probabilities])


def _quantile_probs(probabilities: Sequence[float]) -> tuple:
    probs = tuple(float(p) for p in probabilities)
    if not probs:
        raise ValueError("need at least one probability")
    return probs


# words of window bitsets per chunk of pairs, about 0.5 MB
_BITSET_WORDS = 1 << 16


def _window_quantiles(x: np.ndarray, b: int, probabilities) -> np.ndarray:
    """Type-1 quantiles of every length-b sliding window; C-contiguous (n-b+1, k).

    A pair x[jb : jb+2b] that runs past the end of x is padded with +inf,
    and the windows that would reach into the padding are dropped. Window t of a pair is a
    bitset over the pair's 2b sorted slots, and the order statistic of rank
    r is the value at its (r+1)-th set bit: a running popcount over the
    words picks the word, six halving popcounts the bit in it. This equals
    selecting within the window, since the window holds exactly b slots.
    Tied values take distinct slots but equal values, so the argsort's order
    among ties cannot change a result. -0.0 and 0.0 compare equal, so a
    window may yield either where selection yields the other;
    ``_sum_sq_scan`` subtracts the first row and sums from +0.0, so the
    standard errors come out the same bits either way. ``x`` must be
    finite, since a NaN has no place in the ordering.
    """
    n = x.size
    a = n - b + 1
    ranks = np.array([_type1_index(b, p) - 1 for p in probabilities])
    out = np.empty((a, ranks.size))
    blocks = -(-a // b)
    words = -(-2 * b // 64)
    xp = np.concatenate((x, np.full((blocks + 1) * b - n, np.inf)))
    pairs = sliding_window_view(xp, 2 * b)[::b]
    slot = np.arange(2 * b)
    # sorted slot s sets bit s % 64 of word s // 64, in the column of its
    # pair position; the first block's columns run reversed, so one
    # OR-accumulate gives its suffixes and the second block's prefixes
    col = np.where(slot < b, b - 1 - slot, slot)
    word = slot // 64 * (2 * b)
    bit = np.left_shift(np.uint64(1), (slot % 64).astype(np.uint64))
    step = max(1, _BITSET_WORDS // (2 * b * words))
    for j in range(0, blocks, step):
        blk = pairs[j : j + step]
        c = len(blk)
        pair = np.arange(c)[:, None]
        order = np.argsort(blk, axis=1)
        acc = np.zeros((c, words, 2, b), np.uint64)
        acc.reshape(-1)[pair * (words * 2 * b) + word + col[order]] = bit
        np.bitwise_or.accumulate(acc, axis=3, out=acc)
        win = acc[:, :, 0, ::-1].copy()
        win[..., 1:] |= acc[:, :, 1, :-1]
        count = np.bitwise_count(win)
        # running popcount over words, a slice at a time: numpy's cumsum is
        # several times slower along a middle axis
        cum = count.astype(np.int32)
        for i in range(1, words):
            cum[:, i] += cum[:, i - 1]
        # per rank and window: the word holding the bit, and the bit's rank in it
        w = (cum <= ranks[:, None, None, None]).sum(axis=2)
        cell = w * b + (pair * (words * b) + np.arange(b))
        u = win.reshape(-1)[cell]
        r = (ranks[:, None, None] - cum.reshape(-1)[cell] + count.reshape(-1)[cell]).astype(np.uint8)
        pos = np.zeros(r.shape, np.uint8)
        for width in (32, 16, 8, 4, 2, 1):
            low = np.bitwise_count(u & np.uint64((1 << width) - 1))
            up = low <= r
            low *= up
            r -= low
            shift = up.view(np.uint8) * np.uint8(width)
            u >>= shift
            pos += shift
        sorted_blk = np.take_along_axis(blk, order, axis=1)
        got = sorted_blk.reshape(-1)[w * 64 + pos + pair * (2 * b)]
        rows = out[j * b : (j + c) * b]
        rows[:] = got.reshape(ranks.size, -1)[:, : len(rows)].T
    return out


def subsample_quantile_se(values, probabilities: Sequence[float] = (0.25, 0.75)) -> Optional[QuantileSeSet]:
    """Subsampling standard errors for type-1 quantiles (sqroot batch size).

    Windows of length b = floor(sqrt(n)) each contribute their own quantile;
    the OBM dispersion formula applied to those per-window quantiles gives
    sigma2 and se per probability. Point estimates come from the full chain.
    """
    x = _as_values(values)
    lay = _layout(x.size, "sqroot", "SUB")
    if lay is None:
        return None
    probs = _quantile_probs(probabilities)
    sigma2 = _prefix_sigma2(x, lay.b, "SUB", np.array([lay.n]), probs)[0]
    return QuantileSeSet(probabilities=probs, point_estimates=quantiles_type1(x, probs),
                         ses=np.sqrt(sigma2 / lay.n), **lay._asdict())


def _check_level(level: float) -> None:
    # a one-sided t level at or below 1/2 has a critical value <= 0, so no interval
    if not 0.5 < level < 1.0:
        raise ValueError(f"level must lie in (0.5, 1), got {level}")


def _t_interval(center: float, se: float, crit: float, **fields) -> Interval:
    half = crit * se
    return Interval(center=center, se=se, half_width=half, lower=center - half, upper=center + half, **fields)


def ci_mean(
    values,
    method: str = "OBM",
    level: float = 0.9,
    policy: BatchPolicy = "sqroot",
    g: Transform = None,
) -> Optional[Interval]:
    """Two-sided t interval for the chain mean.

    Degrees of freedom follow the estimator: a - 1 for BM, n - b + 1 for
    OBM. ``level`` is the one-sided t level (0.9 gives an 80% interval),
    which must lie in (0.5, 1).
    """
    meth = method.upper()
    if meth not in ("BM", "OBM"):
        raise ValueError(f"method specified invalid (meth={method})")
    _check_level(level)
    est = (mcse_bm if meth == "BM" else mcse_obm)(values, policy, g)
    if est is None:
        return None
    df = est.a - 1 if meth == "BM" else est.a
    return _t_interval(est.mean, est.se, t_quantile(level, df), df=df, level=level, method=meth, b=est.b, a=est.a)


def ci_quantiles(
    values,
    probabilities: Sequence[float] = (0.25, 0.75),
    level: float = 0.9,
    bonferroni: bool = False,
) -> Optional[list[Interval]]:
    """Per-quantile subsampling t intervals, optionally Bonferroni-adjusted.

    With the adjustment, k simultaneous intervals use the inflated level
    1 - (1 - level)/k (0.975 with k=2 becomes 0.9875). ``level`` must lie
    in (0.5, 1).
    """
    _check_level(level)
    qset = subsample_quantile_se(values, probabilities)
    if qset is None:
        return None
    k = len(qset.probabilities)
    adj_level = 1.0 - (1.0 - level) / k if bonferroni else level
    df = qset.a
    crit = t_quantile(adj_level, df)
    return [
        _t_interval(float(q), float(se), crit, df=df, level=adj_level, method="SUB", b=qset.b, a=qset.a,
                    probability=p)
        for p, q, se in zip(qset.probabilities, qset.point_estimates, qset.ses)
    ]
