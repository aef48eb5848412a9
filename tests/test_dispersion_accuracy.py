"""Accuracy of the dispersion scan behind every windowed estimator.

``mcse._sum_sq_scan`` gets the sum of squared deviations S of every leading
block of per-batch statistics (``mcse._batch_stats``) from one Welford scan
on the statistics shifted by their first row. These tests hold each row of it, and the
estimators built on it, to an exact oracle on the very statistics each
estimator builds, over chains chosen to stress a one-pass dispersion:
burn-in transients, linear trends, 1e8 offsets, ties and long constant runs
(whose window quantiles are piecewise constant). The oracle is exact
because a two-pass ``math.fsum`` one is not: on statistics a few ulps apart
the rounding of their mean is as large as their spread, and S comes out up
to twice too large.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, strategies as st

from mcmc_confidence import (
    Rng,
    mcse_bm,
    mcse_obm,
    running_mcse,
    running_quantile_se,
    subsample_quantile_se,
)
from mcmc_confidence.mcse import MIN_SAMPLES, _batch_stats, _running_means, _sum_sq_scan, batch_layout

REL = 1e-12


def exact_ss(column):
    # S in rational arithmetic, rounded once
    vals = [Fraction(float(v)) for v in column]
    mean = sum(vals) / len(vals)
    return float(sum((v - mean) ** 2 for v in vals))


def exact_running_means(column):
    total, out = Fraction(0), []
    for r, v in enumerate(column, start=1):
        total += Fraction(float(v))
        out.append(float(total / r))
    return out


def assert_close(got, want):
    if want == 0.0:
        assert got == 0.0
    else:
        assert abs(got - want) <= REL * want, (got, want)


@st.composite
def stressed_chains(draw):
    n = draw(st.integers(MIN_SAMPLES, 400), label="n")
    seed = draw(st.integers(0, 10_000), label="seed")
    rho = draw(st.sampled_from([0.0, 0.5, 0.95]), label="rho")
    shape = draw(st.sampled_from(["stationary", "burn-in", "trend", "runs"]), label="shape")
    offset = draw(st.sampled_from([0.0, 1e8, -1e8, 12345.678]), label="offset")
    t = np.arange(n, dtype=float)
    if shape == "runs":
        # long constant stretches of a few values
        levels = Rng(seed).normals(1 + n // 40).round(1)
        x = np.repeat(levels, 40)[:n]
    else:
        e = Rng(seed).normals(n)
        x = np.empty(n)
        x[0] = e[0]
        for i in range(1, n):
            x[i] = rho * x[i - 1] + e[i]
    if shape == "burn-in":
        start = draw(st.sampled_from([-1e3, -25.0, 40.0, 1e4]), label="start")
        x += start * np.exp(-t / draw(st.floats(1.0, max(1.0, n / 4)), label="decay"))
    elif shape == "trend":
        x += draw(st.floats(-50.0, 50.0), label="slope") * t / n
    if draw(st.booleans(), label="ties"):
        x = x.round(1)
    return x + offset


def estimator_stats(x, policy, probs):
    """(name, b, statistics) for each estimator's dispersion on chain x; one
    column per statistic."""
    n = x.size
    b, a = batch_layout(n, policy)
    out = []
    if a >= 2:
        out.append(("bm", b, _batch_stats(x, b, "BM", n)))
    if b < n:
        out.append(("obm", b, _batch_stats(x, b, "OBM", n)))
    bq = math.isqrt(n)
    out.append(("sub", bq, _batch_stats(x, bq, "SUB", n, probs)))
    return out


@given(big=st.sampled_from([1e16, -3e15, 2.0**60, 1e8]), n=st.integers(2, 500),
       small=st.lists(st.sampled_from([1.0, 0.5, -0.25, 3.0, 1e-3]), min_size=1, max_size=4))
def test_running_means_stay_within_two_ulps_where_a_plain_cumsum_drifts(big, n, small):
    # after one large row, a plain cumsum rounds each small one away, in part or whole
    col = np.resize(np.array(small), n)
    col[1] = big
    for d in (col, np.column_stack([col, -2.0 * col])):
        m = _running_means(d).reshape(n, -1)
        for j, column in enumerate(d.reshape(n, -1).T):
            want = np.array(exact_running_means(column))
            assert (np.abs(m[:, j] - want) <= 2 * np.spacing(np.abs(want))).all()


policies = st.one_of(st.sampled_from(["sqroot", "cuberoot"]), st.integers(2, 60))
probabilities = st.lists(st.sampled_from([0.05, 0.25, 0.5, 0.75, 1.0]), min_size=1, max_size=3)


@given(x=stressed_chains(), policy=policies, probs=probabilities, data=st.data())
def test_scan_rows_match_exact_oracle(x, policy, probs, data):
    for name, _, stats in estimator_stats(x, policy, probs):
        scan = _sum_sq_scan(stats)
        assert scan.shape == stats.shape
        assert not np.signbit(scan).any() and not np.isnan(scan).any()
        a = len(stats)
        rows = {0, 1, a - 1} | set(data.draw(st.lists(st.integers(0, a - 1), max_size=4), label=name))
        for r in sorted(rows):
            for j in range(stats.shape[1]):
                assert_close(float(scan[r, j]), exact_ss(stats[: r + 1, j]))


@given(x=stressed_chains(), policy=policies, probs=probabilities)
def test_estimators_match_exact_oracle(x, policy, probs):
    n = x.size
    for name, b, stats in estimator_stats(x, policy, probs):
        if name == "bm":
            a = len(stats)
            assert_close(mcse_bm(x, policy).sigma2_hat, b * exact_ss(stats[:, 0]) / (a - 1))
        elif name == "obm":
            a = len(stats)
            assert_close(mcse_obm(x, policy).sigma2_hat, n * b * exact_ss(stats[:, 0]) / ((a - 1) * a))
        else:
            a = n - b + 1
            ses = subsample_quantile_se(x, probs).ses
            for j, se in enumerate(ses):
                sigma2 = n * b * exact_ss(stats[:, j]) / ((a - 1) * a)
                assert_close(float(se), math.sqrt(sigma2 / n))


@given(value=st.sampled_from([0.0, -3.25, 7.0, 0.1, 1e8, -1e8 + 0.5, 1e-300]),
       n=st.integers(MIN_SAMPLES, 300), cols=st.integers(1, 3))
def test_constant_statistics_give_zero_exactly(value, n, cols):
    stats = np.full((n, cols), value)
    scan = _sum_sq_scan(stats)
    assert (scan == 0.0).all() and not np.signbit(scan).any()
    x = np.full(n, value)
    assert mcse_bm(x).se == 0.0
    assert (subsample_quantile_se(x, (0.25, 0.75)).ses == 0.0).all()
    assert np.nan_to_num(running_mcse(x, "BM"), nan=0.0).tolist() == [0.0] * n
    assert np.nan_to_num(running_quantile_se(x, (0.5, 1.0)), nan=0.0).tolist() == [[0.0, 0.0]] * n
    if value == float(np.float32(value)) and abs(value) <= 1e8:
        # window sums of these values are exact, so the window means are constant
        assert mcse_obm(x).se == 0.0
        assert np.nan_to_num(running_mcse(x, "OBM"), nan=0.0).tolist() == [0.0] * n


@given(value=st.sampled_from([1.0, -0.3, 1e8, 2.0**-1000]), n=st.integers(2, 300),
       seed=st.integers(0, 10_000), spread=st.integers(1, 4))
def test_near_constant_statistics_stay_nonnegative(value, n, seed, spread):
    # statistics a few ulps apart: every S >= 0, never NaN, and close to the oracle
    steps = np.round(Rng(seed).normals(2 * n)).clip(-spread, spread).reshape(n, 2)
    stats = value + steps * np.spacing(value)
    scan = _sum_sq_scan(stats)
    assert not np.signbit(scan).any() and not np.isnan(scan).any()
    for j in range(2):
        assert_close(float(scan[-1, j]), exact_ss(stats[:, j]))
    x = value + np.round(Rng(seed).normals(max(n, MIN_SAMPLES))) * np.spacing(value)
    for se in (mcse_bm(x).se, mcse_obm(x).se, *subsample_quantile_se(x, (0.5,)).ses):
        assert se >= 0.0 and not math.isnan(se)
    for sweep in (running_mcse(x, "BM"), running_mcse(x, "OBM"), running_quantile_se(x, (0.25, 0.75))):
        tail = sweep[MIN_SAMPLES - 1 :]
        assert (tail >= 0.0).all() and not np.isnan(tail).any()
