"""Property tests for the shared window core: the exact bitset window
quantiles, the prefix sigma2 core behind the direct estimators and the
running sweeps, and non-finite rejection."""

import math
import tracemalloc

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
    quantiles_type1,
    running_mcse,
    running_mean,
    running_quantile_se,
    running_quantiles,
    subsample_quantile_se,
)
from mcmc_confidence import mcse
from mcmc_confidence.mcse import MIN_SAMPLES, _batch_stats, _prefix_sigma2, _window_quantiles

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


def edge_chains(n):
    # runs of ties, a constant chain, and a chain mixing -0.0 and 0.0
    rng = Rng(n)
    tied = np.repeat(np.round(rng.normals(n), 1), 3)[:n]
    signed = np.where(np.arange(n) % 5 < 3, -0.0, 0.0)
    signed[::7] = np.round(rng.normals(signed[::7].size), 0)
    return {"tied": tied, "constant": np.full(n, 2.5), "signed zeros": signed}


@pytest.mark.parametrize("b", [2, 31, 32, 33, 63, 64, 65, 300])
@pytest.mark.parametrize("kind", ["tied", "constant", "signed zeros"])
def test_window_quantiles_exact_around_word_edges(b, kind):
    # n - b + 1 is no multiple of b, so the last pair is padded; b = n is one window
    n = 300 if b == 300 else 5 * b + b // 2 + 1
    assert b == n or (n - b + 1) % b != 0
    x = edge_chains(n)[kind]
    probs = (TINY, 0.25, 0.5, 0.75, 1.0)
    assert np.array_equal(_window_quantiles(x, b, probs), reference_window_quantiles(x, b, probs))


@pytest.mark.parametrize("bitset_words", [1, 3 * 2 * 33 * 2])
def test_window_quantiles_exact_across_chunks(monkeypatch, bitset_words):
    # one pair per chunk, then three pairs per chunk with a short last chunk
    monkeypatch.setattr(mcse, "_BITSET_WORDS", bitset_words)
    b, n = 33, 33 * 11 + 5
    for x in (np.round(Rng(4).normals(n), 1), *edge_chains(n).values()):
        probs = (0.1, 0.5, 0.9)
        assert np.array_equal(_window_quantiles(x, b, probs), reference_window_quantiles(x, b, probs))


def test_signed_zeros_leave_standard_errors_bit_identical():
    # the window kernel may pick -0.0 where selection picks 0.0; the
    # standard errors must not tell the two apart
    x = edge_chains(900)["signed zeros"]
    unsigned = np.where(x == 0.0, 0.0, x)
    probs = (0.25, 0.5, 0.75)
    windows = _window_quantiles(x, 30, probs)
    assert np.signbit(windows[windows == 0.0]).any()
    assert subsample_quantile_se(x, probs).ses.tobytes() == subsample_quantile_se(unsigned, probs).ses.tobytes()
    assert running_quantile_se(x, probs).tobytes() == running_quantile_se(unsigned, probs).tobytes()


def test_window_quantiles_memory_scales_with_n_not_n_times_b():
    # the output is 2 x.nbytes, the padded copy 1; chunk buffers are bounded
    x = Rng(6).normals(200_000)
    tracemalloc.start()
    try:
        _window_quantiles(x, 447, (0.25, 0.75))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * x.nbytes


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
    bm_ks = np.arange(2 * b, n + 1)
    obm_ks = np.arange(max(MIN_SAMPLES, b + 1), 2 * b - 1)
    for k, row in zip(bm_ks, _prefix_sigma2(x, b, "BM", bm_ks)):
        est = mcse_bm(x[:k], b)
        assert est.a < est.b
        assert est.sigma2_hat == row[0]
    for k, row in zip(obm_ks, _prefix_sigma2(x, b, "OBM", obm_ks)):
        est = mcse_obm(x[:k], b)
        assert est.a < est.b
        assert est.sigma2_hat == row[0]


@given(seed=st.integers(0, 10_000), b=st.integers(3, 20), data=st.data())
def test_prefix_sigma2_rows_equal_direct_estimates_on_any_prefixes(seed, b, data):
    # ascending, gapped prefix lengths with one batch size: BM from the
    # fewest batches (a < b), OBM, and SUB within b's sqroot group
    n = (b + 1) ** 2 - 1
    x = np.round(Rng(seed).normals(n), 1) + 100.0

    def prefixes(low, label):
        ks = data.draw(st.sets(st.integers(low, n), max_size=8), label=label) | {low}
        return np.array(sorted(ks))

    bm_ks = prefixes(max(MIN_SAMPLES, 2 * b), "BM")
    for k, row in zip(bm_ks, _prefix_sigma2(x, b, "BM", bm_ks)):
        assert mcse_bm(x[:k], b).sigma2_hat == row[0]
    obm_ks = prefixes(max(MIN_SAMPLES, b + 1), "OBM")
    for k, row in zip(obm_ks, _prefix_sigma2(x, b, "OBM", obm_ks)):
        assert mcse_obm(x[:k], b).sigma2_hat == row[0]
    probs = (TINY, 0.25, 0.5, 1.0)
    sub_ks = prefixes(max(MIN_SAMPLES, b * b), "SUB")
    for k, row in zip(sub_ks, _prefix_sigma2(x, b, "SUB", sub_ks, probs)):
        assert subsample_quantile_se(x[:k], probs).ses.tobytes() == np.sqrt(row / k).tobytes()


@given(seed=st.integers(0, 10_000), b=st.integers(2, 12), cut=st.integers(0, 40))
def test_batch_stats_of_a_prefix_are_the_leading_rows(seed, b, cut):
    x = np.round(Rng(seed).normals(3 * b + 40), 1)
    n = x.size - cut
    probs = (0.25, 1.0)
    for kind, a in (("BM", n // b), ("OBM", n - b + 1), ("SUB", n - b + 1)):
        whole, prefix = _batch_stats(x, b, kind, x.size, probs), _batch_stats(x, b, kind, n, probs)
        assert prefix.shape == (a, 2 if kind == "SUB" else 1)
        assert prefix.tobytes() == whole[:a].tobytes()
    windows = np.lib.stride_tricks.sliding_window_view(x[:n], b)
    assert np.allclose(_batch_stats(x, b, "BM", n)[:, 0], windows[::b].mean(axis=1), rtol=0, atol=1e-12)
    assert np.allclose(_batch_stats(x, b, "OBM", n)[:, 0], windows.mean(axis=1), rtol=0, atol=1e-12)


# non-finite input -------------------------------------------------------------

ESTIMATORS = [
    mcse_bm,
    mcse_obm,
    subsample_quantile_se,
    lambda x: quantiles_type1(x, (0.25, 1.0)),
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
