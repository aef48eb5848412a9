import math
from statistics import NormalDist

import numpy as np
import pytest

from mcmc_confidence import (
    Ar1Params,
    Ar1Source,
    Chain,
    NormalPosteriorParams,
    Rng,
    acf,
    ar1_extend,
    ar1_run,
    nv_gibbs_run,
    t_cdf,
    tda_run,
)


class StubRng:
    """Scripted draws so the deterministic part of a transition is testable."""

    seed = None

    def __init__(self, normals=(), gammas=()):
        self._normals = list(normals)
        self._gammas = list(gammas)
        self.normals_calls = []
        self.gamma_calls = []

    def normals(self, n, mean=0.0, sd=1.0):
        self.normals_calls.append((n, mean, sd))
        draws, self._normals = self._normals[:n], self._normals[n:]
        return np.array(draws)

    def standard_draws(self):
        def standard_gamma(shape):
            self.gamma_calls.append(shape)
            return self._gammas.pop(0)

        return standard_gamma, lambda: self._normals.pop(0)


def reference_tda(n, seed, init=(1.0, 1.0)):
    """The data-augmentation chain drawn through numpy's gamma(shape, scale) and normal(loc, sd)."""
    gen = np.random.Generator(np.random.PCG64(seed))
    x, y = init
    rows = [(x, y)]
    for _ in range(n - 1):
        x = gen.normal(0.0, math.sqrt(1.0 / y))
        y = gen.gamma(2.5, 1 / (2.0 + 0.5 * x * x))
        rows.append((x, y))
    return np.array(rows)


def reference_nv_gibbs(n, params, seed, init=(1.0, 1.0)):
    """The normal mean/variance Gibbs chain drawn the same way."""
    gen = np.random.Generator(np.random.PCG64(seed))
    m, y_bar, s2 = params.m, params.y_bar, params.s2
    mu, theta = init
    rows = [(mu, theta)]
    for _ in range(n - 1):
        theta = 1.0 / gen.gamma(0.5 * (m - 1), 1 / (0.5 * m * (s2 + (y_bar - mu) ** 2)))
        mu = gen.normal(y_bar, math.sqrt(theta / m))
        rows.append((mu, theta))
    return np.array(rows)


@pytest.fixture(scope="module")
def tda_big():
    return tda_run(10**6, Rng(424242))


# AR(1) ------------------------------------------------------------------------


def test_ar1_params_validation():
    for rho in (1.0, -1.0, 1.2):
        with pytest.raises(ValueError):
            Ar1Params(rho)
    with pytest.raises(ValueError):
        Ar1Params(0.5, 0.0)
    assert Ar1Params(0.5).stationary_sd == pytest.approx(math.sqrt(4.0 / 3.0))


@pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf, -1.0])
def test_ar1_params_reject_non_finite_or_negative_tau(tau):
    with pytest.raises(ValueError, match="tau"):
        Ar1Params(0.5, tau)


# one AR(1) step is the second state of a two-state run


def test_ar1_step_deterministic_part():
    assert ar1_run(2, Ar1Params(0.5), StubRng(normals=[0.0]), x0=2.0).values[1] == 1.0
    for rho in (0.1, 0.9, -0.5):
        assert ar1_run(2, Ar1Params(rho), StubRng(normals=[0.3]), x0=0.0).values[1] == 0.3


def test_ar1_step_uses_innovation_scale():
    stub = StubRng(normals=[0.0])
    ar1_run(2, Ar1Params(0.5, tau=2.5), stub)
    assert stub.normals_calls == [(1, 0.0, 2.5)]


def test_ar1_run_includes_start():
    chain = ar1_run(2000, Ar1Params(0.5), Rng(1976))
    assert len(chain) == 2000
    assert chain.values[0] == 1.0
    single = ar1_run(1, Ar1Params(0.5), Rng(0), x0=-3.0)
    assert np.array_equal(single.values, [-3.0])
    with pytest.raises(ValueError):
        ar1_run(0, Ar1Params(0.5), Rng(0))


def test_ar1_extend_prefix_untouched():
    params = Ar1Params(0.5)
    rng = Rng(7)
    base = ar1_run(100, params, rng)
    before = base.values.copy()
    longer = ar1_extend(base, 50, params, rng)
    assert len(longer) == 150
    assert np.array_equal(longer.values[:100], before)
    assert np.array_equal(base.values, before)
    with pytest.raises(ValueError):
        ar1_extend(base, 0, params, rng)


def test_ar1_extend_composes():
    params = Ar1Params(0.8)
    rng_a = Rng(5)
    piecewise = ar1_extend(ar1_extend(ar1_run(1, params, rng_a), 137, params, rng_a), 63, params, rng_a)
    rng_b = Rng(5)
    direct = ar1_extend(ar1_run(1, params, rng_b), 200, params, rng_b)
    assert np.array_equal(piecewise.values, direct.values)


def test_ar1_stationary_variance():
    chain = ar1_run(10**5, Ar1Params(0.5), Rng(123))
    target = 1.0 / (1.0 - 0.25)
    assert abs(float(np.var(chain.values)) - target) < 0.05 * target


def test_ar1_rho_zero_is_iid_normal():
    # 100 seeded runs; KS distance against N(0, tau^2) stays below the 1%
    # critical value in at least 95 of them. The ECDF is compared on every
    # 10th order statistic, adding a rigorous k/n slack to the statistic.
    n = 10**5
    crit = 1.62762 / math.sqrt(n)
    stride = 10
    passes = 0
    params = Ar1Params(0.0, tau=1.0)
    for seed in range(100):
        rng = Rng(7_000 + seed)
        sample = ar1_extend(ar1_run(1, params, rng, x0=0.0), n, params, rng).values[1:]
        xs = np.sort(sample)[::stride]
        ranks = np.arange(0, n, stride)
        cdf = np.array([NormalDist().cdf(float(v)) for v in xs])
        d_sub = np.max(np.maximum(np.abs(cdf - (ranks + 1) / n), np.abs(cdf - ranks / n)))
        if d_sub + stride / n < crit:
            passes += 1
    assert passes >= 95


@pytest.mark.parametrize("rho", [0.5, 0.95])
def test_ar1_lag_one_autocorrelation(rho):
    chain = ar1_run(10**5, Ar1Params(rho), Rng(int(rho * 100)))
    r = acf(chain.values, max_lag=1)
    assert abs(float(r[1]) - rho) < 0.02


# data augmentation ---------------------------------------------------------------


# one data-augmentation step (x', y') -> (x, y) is the second state of a two-state run


def test_tda_step_conditional_structure():
    # x = sqrt(1/y') z, then y = g / rate for a Gamma(5/2, 1) draw g
    stub = StubRng(normals=[0.0], gammas=[7.7])
    new = tda_run(2, stub, init=(5.0, 1.0)).values[1]
    assert new[0] == 0.0
    assert new[1] == 7.7 / 2.0  # rate = 2 + x^2/2 at x = 0
    assert stub.gamma_calls == [2.5]


def test_tda_step_rate_uses_new_x():
    stub = StubRng(normals=[3.0], gammas=[1.0])
    x, y = tda_run(2, stub, init=(0.0, 4.0)).values[1]
    assert x == 1.5  # sd = sqrt(1/4)
    assert y == 1.0 / (2.0 + 0.5 * 1.5**2)
    assert stub.gamma_calls == [2.5]


def test_tda_run_basics():
    single = tda_run(1, Rng(0))
    assert np.array_equal(single.values, [[1.0, 1.0]])
    a = tda_run(2000, Rng(100))
    b = tda_run(2000, Rng(100))
    assert np.array_equal(a.values, b.values)
    assert np.all(a.values[:, 1] > 0.0)
    with pytest.raises(ValueError):
        tda_run(0, Rng(0))
    with pytest.raises(ValueError):
        tda_run(5, Rng(0), init=(1.0, -1.0))


def test_tda_run_matches_stepwise_iteration():
    n = 500
    chain = tda_run(n, Rng(9), init=(0.5, 2.0))
    rng = Rng(9)
    state = (0.5, 2.0)
    rows = [state]
    for _ in range(n - 1):
        state = tuple(tda_run(2, rng, init=state).values[1])
        rows.append(state)
    assert np.array_equal(chain.values, np.array(rows))


@pytest.mark.parametrize("seed", [0, 57, 424242])
def test_tda_run_draws_exactly_what_numpy_gamma_and_normal_draw(seed):
    n = 10**4
    assert tda_run(n, Rng(seed)).values.tobytes() == reference_tda(n, seed).tobytes()
    init = (-0.3, 0.7)
    assert tda_run(n, Rng(seed), init=init).values.tobytes() == reference_tda(n, seed, init).tobytes()


def test_tda_long_run_moments():
    chain = tda_run(10**5, Rng(2025))
    x = chain.values[:, 0]
    assert abs(float(np.mean(x))) < 0.05
    assert abs(float(np.mean(x * x)) - 2.0) < 0.15


def test_tda_marginal_matches_t4_cdf(tda_big):
    # ECDF of x against the 4-df t CDF, evaluated on a strided order-statistic
    # grid with the stride/n slack folded into the bound
    x = np.sort(tda_big.values[:, 0])
    n = x.size
    stride = 20
    xs = x[::stride]
    ranks = np.arange(0, n, stride)
    cdf = np.array([t_cdf(float(v), 4.0) for v in xs])
    d_sub = np.max(np.maximum(np.abs(cdf - (ranks + 1) / n), np.abs(cdf - ranks / n)))
    assert d_sub + stride / n < 0.01


def test_tda_latent_mean_matches_conditional_oracle(tda_big):
    x = tda_big.values[:, 0]
    y = tda_big.values[:, 1]
    # E[y | x] = 2.5 / (2 + x^2/2): averaging it along the chain gives an
    # independent estimate of the same long-run mean
    oracle = float(np.mean(2.5 / (2.0 + 0.5 * x * x)))
    assert abs(float(np.mean(y)) - oracle) / oracle < 0.02


# normal mean/variance Gibbs -------------------------------------------------------


def test_nv_params_validation():
    with pytest.raises(ValueError):
        NormalPosteriorParams(m=2)
    with pytest.raises(ValueError):
        NormalPosteriorParams(s2=0.0)


@pytest.mark.parametrize("name", ["y_bar", "s2"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nv_params_reject_non_finite(name, bad):
    with pytest.raises(ValueError, match=name):
        NormalPosteriorParams(**{name: bad})


def test_nv_step_forced_draw_structure():
    # theta = rate / g for a Gamma((m-1)/2, 1) draw g, with rate m(s2 + (y_bar - mu_old)^2)/2
    params = NormalPosteriorParams(m=11, y_bar=1.0, s2=4.0)
    stub = StubRng(normals=[2.0], gammas=[2.0])
    mu, theta = nv_gibbs_run(2, params, stub, init=(0.0, 3.0)).values[1]
    assert theta == pytest.approx(11.0 * (4.0 + 1.0) / 2.0 / 2.0, rel=1e-15)
    assert stub.gamma_calls == [5.0]
    # mu = y_bar + sqrt(theta/m) z with the fresh theta
    assert mu == pytest.approx(1.0 + 2.0 * math.sqrt(theta / 11.0), rel=1e-15)


@pytest.mark.parametrize("seed", [0, 57, 424242])
def test_nv_gibbs_run_draws_exactly_what_numpy_gamma_and_normal_draw(seed):
    n = 10**4
    params = NormalPosteriorParams()
    assert nv_gibbs_run(n, params, Rng(seed)).values.tobytes() == reference_nv_gibbs(n, params, seed).tobytes()
    params, init = NormalPosteriorParams(m=30, y_bar=-2.5, s2=0.3), (0.2, 3.0)
    got = nv_gibbs_run(n, params, Rng(seed), init=init).values
    assert got.tobytes() == reference_nv_gibbs(n, params, seed, init).tobytes()


def test_nv_run_basics():
    params = NormalPosteriorParams()
    single = nv_gibbs_run(1, params, Rng(0))
    assert np.array_equal(single.values, [[1.0, 1.0]])
    a = nv_gibbs_run(2000, params, Rng(100))
    b = nv_gibbs_run(2000, params, Rng(100))
    assert np.array_equal(a.values, b.values)
    assert np.all(a.values[:, 1] > 0.0)
    with pytest.raises(ValueError):
        nv_gibbs_run(0, params, Rng(0))
    with pytest.raises(ValueError):
        nv_gibbs_run(5, params, Rng(0), init=(0.0, 0.0))


RATE = "Gamma rate m (s2 + (y_bar - mu)^2) / 2 overflows the float range at state index {} (mu = {})"


@pytest.mark.parametrize(
    "params, n, message",
    [
        (NormalPosteriorParams(y_bar=1e300), 50, RATE.format(1, 1.0)),  # (y_bar - mu) ** 2 overflows
        (NormalPosteriorParams(y_bar=1e154), 50, RATE.format(1, 1.0)),  # the rate overflows to inf
        (NormalPosteriorParams(s2=1e308), 50, RATE.format(1, 1.0)),
        # a finite rate over a small draw overflows theta at state 11, and the next rate with it
        (NormalPosteriorParams(m=3, s2=1e306), 50, RATE.format(12, math.inf)),
        (NormalPosteriorParams(m=3, s2=1e306), 12, "theta = rate / Gamma draw overflows the float range at state index 11"),
    ],
)
def test_nv_gibbs_run_reports_an_overflowing_update(params, n, message):
    with pytest.raises(ValueError) as exc:
        nv_gibbs_run(n, params, Rng(3))
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "run, message",
    [
        (lambda init: tda_run(3, Rng(3), init=init), "init needs a finite x and a positive, finite latent y"),
        (lambda init: nv_gibbs_run(3, NormalPosteriorParams(), Rng(3), init=init),
         "init needs a finite mean mu and a positive, finite variance theta"),
    ],
    ids=["tda", "nv_gibbs"],
)
@pytest.mark.parametrize("init", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)],
                         ids=["nan-1", "inf-1", "1-nan", "1-inf"])
def test_samplers_reject_a_non_finite_init(run, message, init):
    with pytest.raises(ValueError) as exc:
        run(init)
    assert str(exc.value) == f"{message}, got {init}"


@pytest.mark.parametrize("start", [
    lambda x0: ar1_run(5, Ar1Params(0.5), Rng(1), x0=x0),
    lambda x0: Ar1Source(Ar1Params(0.5), x0=x0).start(3, Rng(1)),
], ids=["ar1_run", "Ar1Source"])
@pytest.mark.parametrize("x0", [math.nan, math.inf, -math.inf])
def test_ar1_rejects_a_non_finite_start(start, x0):
    with pytest.raises(ValueError) as exc:
        start(x0)
    assert str(exc.value) == f"start value x0 must be finite, got {x0}"


CHAIN = ar1_run(3, Ar1Params(0.5), Rng(1))


@pytest.mark.parametrize("run, name", [
    (lambda n: ar1_run(n, Ar1Params(0.5), Rng(1)), "n"),
    (lambda n: ar1_extend(CHAIN, n, Ar1Params(0.5), Rng(1)), "p"),
    (lambda n: tda_run(n, Rng(1)), "n"),
    (lambda n: nv_gibbs_run(n, NormalPosteriorParams(), Rng(1)), "n"),
], ids=["ar1_run", "ar1_extend", "tda_run", "nv_gibbs_run"])
@pytest.mark.parametrize("count", [2.5, 1.0 + 1e-15, math.inf, math.nan])
def test_sampler_counts_must_be_whole_numbers(run, name, count):
    with pytest.raises(ValueError) as exc:
        run(count)
    assert str(exc.value) == f"{name} must be a whole number, got {count}"


@pytest.mark.parametrize("run, message", [
    (lambda n: ar1_run(n, Ar1Params(0.5), Rng(1)), "chain length must be positive"),
    (lambda n: ar1_extend(CHAIN, n, Ar1Params(0.5), Rng(1)), "extension length must be positive"),
    (lambda n: tda_run(n, Rng(1)), "chain length must be positive"),
    (lambda n: nv_gibbs_run(n, NormalPosteriorParams(), Rng(1)), "chain length must be positive"),
], ids=["ar1_run", "ar1_extend", "tda_run", "nv_gibbs_run"])
@pytest.mark.parametrize("count", [0, 0.5, -2.5, -math.inf])
def test_sampler_counts_below_one_keep_their_message(run, message, count):
    with pytest.raises(ValueError) as exc:
        run(count)
    assert str(exc.value) == f"{message}, got {count}"


def test_whole_float_counts_draw_as_their_int():
    assert np.array_equal(ar1_run(4.0, Ar1Params(0.5), Rng(1)).values, ar1_run(4, Ar1Params(0.5), Rng(1)).values)
    assert np.array_equal(ar1_extend(CHAIN, 2.0, Ar1Params(0.5), Rng(1)).values,
                          ar1_extend(CHAIN, 2, Ar1Params(0.5), Rng(1)).values)
    assert np.array_equal(tda_run(3.0, Rng(1)).values, tda_run(3, Rng(1)).values)
    assert np.array_equal(nv_gibbs_run(np.int64(3), NormalPosteriorParams(), Rng(1)).values,
                          nv_gibbs_run(3, NormalPosteriorParams(), Rng(1)).values)


def test_nv_long_run_mean_mu():
    chain = nv_gibbs_run(10**5, NormalPosteriorParams(m=11, y_bar=1.0, s2=4.0), Rng(77))
    assert abs(float(np.mean(chain.values[:, 0])) - 1.0) < 0.05


def test_nv_location_equivariance_on_a_shared_stream():
    # shifting y_bar shifts the mu sample through the very same draw stream;
    # only last-ulp double rounding separates the two runs (statistical noise
    # would be ~1e-1 at this length)
    base = nv_gibbs_run(500, NormalPosteriorParams(y_bar=1.0), Rng(55))
    shifted = nv_gibbs_run(500, NormalPosteriorParams(y_bar=3.0), Rng(55), init=(3.0, 1.0))
    assert float(np.max(np.abs(shifted.values[:, 0] - (base.values[:, 0] + 2.0)))) < 1e-12
    assert float(np.max(np.abs(shifted.values[:, 1] - base.values[:, 1]))) < 1e-12


# chain container ------------------------------------------------------------------


def test_chain_requires_a_state():
    with pytest.raises(ValueError):
        Chain(values=np.empty(0))
