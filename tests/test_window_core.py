"""Property tests for the shared window core: sliding sorted-window quantiles,
the per-batch-size reuse in the running sweeps, and non-finite rejection."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mcmc_confidence import (
    Rng,
    acf,
    ci_mean,
    ci_quantiles,
    kde_1d,
    mcse_bm,
    mcse_obm,
    quantile_type1,
    quantiles_type1,
    running_mcse,
    running_mean,
    running_quantile_se,
    running_quantiles,
    subsample_quantile_se,
)
from mcmc_confidence.mcse import (
    MIN_SAMPLES,
    _batch_means,
    _prefix_sums,
    _sigma2,
    _sum_sq_scan,
    _window_means,
    _window_quantiles,
)

TINY = float(np.nextafter(0.0, 1.0))

# chains built from runs of a few distinct values: ties and constant stretches
runs = st.lists(st.tuples(st.sampled_from([-2.0, -0.0, 0.0, 0.5, 1.0, 3.0]), st.integers(1, 8)),
                min_size=1, max_size=12)
probabilities = st.lists(
    st.one_of(st.sampled_from([1.0, TINY, 1e-9, 0.5]), st.floats(1e-6, 1.0)), min_size=1, max_size=4
)


def chain_from_runs(pairs, noise_seed):
    # runs of repeated values, interleaved with a few distinct draws
    values = np.concatenate([np.full(count, value) for value, count in pairs])
    extra = np.round(Rng(noise_seed).normals(values.size), 1)
    return np.where(np.arange(values.size) % 3 == 0, extra, values)


def reference_window_quantiles(x, b, probs):
    cols = [max(1, math.ceil(b * p)) - 1 for p in probs]
    rows = [np.partition(x[i : i + b], cols)[cols] for i in range(x.size - b + 1)]
    return np.array(rows).reshape(len(rows), len(cols))


@given(pairs=runs, noise_seed=st.integers(0, 1000), probs=probabilities, data=st.data())
def test_window_quantiles_match_partition_reference(pairs, noise_seed, probs, data):
    x = chain_from_runs(pairs, noise_seed)
    if x.size < 2:
        x = np.append(x, x)
    b = data.draw(st.integers(2, x.size), label="b")
    got = _window_quantiles(x, b, probs)
    assert got.shape == (x.size - b + 1, len(probs))
    assert got.flags["C_CONTIGUOUS"]
    assert np.array_equal(got, reference_window_quantiles(x, b, probs))


def group_edges(b, n):
    return sorted(k for k in {b * b - 1, b * b, (b + 1) ** 2 - 1} if MIN_SAMPLES <= k <= n)


@given(seed=st.integers(0, 10_000), b=st.integers(3, 14), extra=st.integers(0, 4))
def test_running_mcse_matches_direct_calls_at_group_edges(seed, b, extra):
    n = (b + 1) ** 2 - 1 + extra
    x = np.round(Rng(seed).normals(n), 1)  # rounded, so ties occur
    for method, direct in (("BM", mcse_bm), ("OBM", mcse_obm)):
        for g in (None, np.square):
            out = running_mcse(x, method, g)
            for k in group_edges(b, n):
                assert out[k - 1] == direct(x[:k], "sqroot", g).se


@given(seed=st.integers(0, 10_000), b=st.integers(3, 14), extra=st.integers(0, 4))
def test_running_quantile_se_matches_direct_calls_at_group_edges(seed, b, extra):
    n = (b + 1) ** 2 - 1 + extra
    x = np.round(Rng(seed).normals(n), 1)
    probs = (TINY, 0.25, 0.5, 1.0)
    out = running_quantile_se(x, probs)
    for k in group_edges(b, n):
        assert np.array_equal(out[k - 1], subsample_quantile_se(x[:k], probs).ses)


@given(seed=st.integers(0, 10_000), b=st.integers(6, 30))
def test_fixed_batch_prefixes_with_fewer_batches_than_batch_size_read_one_scan(seed, b):
    # a < b: BM prefixes of length 2b..b^2-1, OBM prefixes of length b+1..2b-2
    n = b * b - 1
    x = np.round(Rng(seed).normals(n), 1) + 100.0
    bm_scan = _sum_sq_scan(_batch_means(x, b, n // b))
    obm_scan = _sum_sq_scan(_window_means(_prefix_sums(x), b, 2 * b - 2))
    for k in range(max(MIN_SAMPLES, b + 1), n + 1):
        if k >= 2 * b:
            est = mcse_bm(x[:k], b)
            assert est.a < est.b
            assert est.sigma2_hat == _sigma2(bm_scan[est.a - 1], b, est.a)
        if k <= 2 * b - 2:
            est = mcse_obm(x[:k], b)
            assert est.a < est.b
            assert est.sigma2_hat == _sigma2(obm_scan[est.a - 1], b, est.a, k)


# non-finite input -------------------------------------------------------------

ESTIMATORS = [
    mcse_bm,
    mcse_obm,
    subsample_quantile_se,
    lambda x: quantile_type1(x, 0.5),
    lambda x: quantiles_type1(x, (0.5,)),
    ci_mean,
    ci_quantiles,
    running_mean,
    lambda x: running_quantiles(x, (0.5,)),
    running_mcse,
    lambda x: running_quantile_se(x, (0.5,)),
    acf,
    kde_1d,
]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_estimators_reject_non_finite_values(estimator, bad):
    x = Rng(9).normals(64)
    x[37] = bad
    with pytest.raises(ValueError, match="non-finite"):
        estimator(x)
