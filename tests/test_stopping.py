import math

import numpy as np
import pytest

from mcmc_confidence import (
    Ar1Params,
    Ar1Source,
    Rng,
    ar1_run,
    StoppingConfig,
    ci_mean,
    ci_quantiles,
    fixed_width_mean,
    fixed_width_quantiles,
    normal_quantile,
)


def make_source(rho, tau=1.0):
    return Ar1Source(Ar1Params(rho, tau))


def grown_chain(source, config, seed, terminal_n):
    # the chain a rule grew to terminal_n: the pilot, then one step per check, from the same seed
    rng = Rng(seed)
    chain = source.start(config.pilot_n, rng)
    while len(chain) < terminal_n:
        chain = source.extend(chain, config.step, rng)
    return chain.values


def test_config_validation():
    with pytest.raises(ValueError):
        StoppingConfig(epsilon=0.0)
    with pytest.raises(ValueError, match="epsilon"):
        StoppingConfig(epsilon=math.nan)
    with pytest.raises(ValueError):
        StoppingConfig(level=1.0)
    for level in (0.5, 0.3, 0.0, math.nan):
        with pytest.raises(ValueError, match=rf"^level must lie in \(0\.5, 1\), got {level}$"):
            StoppingConfig(level=level)


@pytest.mark.parametrize("level", [0.5, 0.3, 0.2, 1.0, math.nan])
def test_intervals_refuse_a_level_outside_one_half_to_one(level):
    # a one-sided level at or below 1/2 gives a critical value <= 0: no interval
    x = ar1_run(2000, Ar1Params(0.9), Rng(1)).values
    message = rf"^level must lie in \(0\.5, 1\), got {level}$"
    with pytest.raises(ValueError, match=message):
        ci_mean(x, "OBM", level)
    with pytest.raises(ValueError, match=message):
        ci_quantiles(x, (0.5,), level)
    with pytest.raises(ValueError, match=message):
        ci_quantiles(x, (0.25, 0.75), level, bonferroni=True)
    for counts in ({"step": 0}, {"step": 1.5}, {"pilot_n": 100.5}, {"max_n": 4000.5}, {"max_n": math.inf}):
        with pytest.raises(ValueError):
            StoppingConfig(**counts)
    with pytest.raises(ValueError):
        StoppingConfig(pilot_n=5)
    with pytest.raises(ValueError):
        StoppingConfig(pilot_n=5000, max_n=4000)


def test_near_constant_chain_stops_at_pilot():
    source = make_source(0.0, tau=1e-3)  # i.i.d. N(0, 1e-6)
    config = StoppingConfig(epsilon=0.1, level=0.9, step=1000, pilot_n=2000)
    res = fixed_width_mean(source, config, Rng(1))
    assert res.converged
    assert res.terminal_n == 2000
    assert len(res.trace) == 1


def test_termination_algebra():
    source = make_source(0.5)
    config = StoppingConfig(epsilon=0.1, level=0.9, step=500, pilot_n=2000)
    res = fixed_width_mean(source, config, Rng(7))
    assert res.converged
    assert res.half_width <= config.epsilon - 1.0 / res.terminal_n
    assert res.terminal_n >= math.ceil(1.0 / config.epsilon)


def test_trace_is_strictly_increasing_by_step():
    source = make_source(0.9)
    config = StoppingConfig(epsilon=0.08, level=0.9, step=1000, pilot_n=2000)
    res = fixed_width_mean(source, config, Rng(3))
    ns = [n for n, _ in res.trace]
    assert ns[0] == 2000
    assert all(b - a == 1000 for a, b in zip(ns, ns[1:]))
    assert ns[-1] == res.terminal_n
    assert (res.terminal_n - config.pilot_n) % config.step == 0


def test_stopping_is_deterministic():
    source = make_source(0.9)
    config = StoppingConfig(epsilon=0.08, level=0.9, step=1000, pilot_n=2000)
    a = fixed_width_mean(source, config, Rng(11))
    b = fixed_width_mean(source, config, Rng(11))
    assert a.terminal_n == b.terminal_n
    assert a.half_width == b.half_width
    assert a.trace == b.trace
    assert np.array_equal(a.estimates, b.estimates)


def test_budget_exhaustion_is_reported_not_raised():
    source = make_source(0.5)
    config = StoppingConfig(epsilon=1e-4, level=0.9, step=1000, pilot_n=2000, max_n=4000)
    res = fixed_width_mean(source, config, Rng(5))
    assert not res.converged
    assert res.terminal_n >= config.max_n
    assert res.half_width + 1.0 / res.terminal_n > config.epsilon


def test_mean_interval_result_fields():
    source = make_source(0.5)
    config = StoppingConfig(epsilon=0.1, level=0.9, step=1000, pilot_n=2000)
    res = fixed_width_mean(source, config, Rng(13))
    assert res.half_widths.shape == (1,)
    assert res.estimates.shape == (1,)
    chain = grown_chain(source, config, 13, res.terminal_n)
    assert chain.size == res.terminal_n
    assert res.estimates[0] == pytest.approx(float(np.mean(chain)))


def test_mean_stopping_coverage_at_moderate_correlation():
    # nominal 80% intervals: over 200 replications the terminal interval
    # should cover the true mean 0 about 80% of the time
    source = make_source(0.5)
    config = StoppingConfig(epsilon=0.1, level=0.9, step=1000, pilot_n=2000)
    base = Rng(880_000)
    covered = 0
    for i in range(200):
        res = fixed_width_mean(source, config, base.spawn(i))
        assert res.converged
        if abs(float(res.estimates[0])) <= res.half_width:
            covered += 1
    assert 0.74 <= covered / 200 <= 0.86


def test_quantile_stopping_moderate_chain():
    source = make_source(0.5)
    config = StoppingConfig(epsilon=0.1, level=0.9, step=2000, pilot_n=2000)
    res = fixed_width_quantiles(source, (0.25, 0.75), config, Rng(21))
    assert res.converged
    assert res.half_widths.shape == (2,)
    assert float(np.max(res.half_widths)) == res.half_width
    assert res.half_width + 1.0 / res.terminal_n <= config.epsilon
    sd = 1.0 / math.sqrt(1.0 - 0.25)
    for p, est in zip((0.25, 0.75), res.estimates):
        assert abs(float(est) - normal_quantile(p) * sd) < 0.25


def test_quantile_stopping_near_constant_stops_at_pilot():
    source = make_source(0.0, tau=1e-3)
    config = StoppingConfig(epsilon=0.1, level=0.9, step=2000, pilot_n=2000)
    res = fixed_width_quantiles(source, (0.25, 0.75), config, Rng(2))
    assert res.converged
    assert res.terminal_n == 2000
    assert len(res.trace) == 1


def test_quantile_stopping_persistent_chain_runs_to_completion():
    # the slow-mixing case: tens of thousands of iterations before both
    # quartile intervals tighten up
    source = make_source(0.95)
    config = StoppingConfig(epsilon=0.1, level=0.9, step=2000, pilot_n=2000)
    res = fixed_width_quantiles(source, (0.25, 0.75), config, Rng(1976))
    assert res.converged
    assert res.half_width <= 0.1
    assert res.half_widths.shape == (2,)
    assert res.terminal_n > 10_000
    sd = 1.0 / math.sqrt(1.0 - 0.95**2)
    for p, est in zip((0.25, 0.75), res.estimates):
        assert abs(float(est) - normal_quantile(p) * sd) < 0.5


def test_quantile_stopping_bonferroni_needs_at_least_as_much():
    source = make_source(0.7)
    config = StoppingConfig(epsilon=0.08, level=0.9, step=2000, pilot_n=2000)
    plain = fixed_width_quantiles(source, (0.25, 0.75), config, Rng(33), bonferroni=False)
    bonf = fixed_width_quantiles(source, (0.25, 0.75), config, Rng(33), bonferroni=True)
    assert bonf.terminal_n >= plain.terminal_n


def test_quantile_trace_records_every_check():
    source = make_source(0.7)
    config = StoppingConfig(epsilon=0.08, level=0.9, step=2000, pilot_n=2000)
    res = fixed_width_quantiles(source, (0.25, 0.75), config, Rng(33))
    ns = [n for n, _ in res.trace]
    assert ns == list(range(2000, res.terminal_n + 1, 2000))


@pytest.mark.parametrize(
    "target, bonferroni",
    [("mean", False), ((0.25, 0.75), False), ((0.1, 0.5, 0.9), True)],
)
def test_rules_report_the_intervals_of_ci_mean_and_ci_quantiles(target, bonferroni):
    # every check, the last one included, stops on exactly the intervals the estimators report
    source = make_source(0.7)
    config = StoppingConfig(epsilon=0.08, level=0.9, step=1500, pilot_n=2000)
    if target == "mean":
        res = fixed_width_mean(source, config, Rng(41))
        intervals = lambda v: [ci_mean(v, "OBM", config.level)]  # noqa: E731
    else:
        res = fixed_width_quantiles(source, target, config, Rng(41), bonferroni=bonferroni)
        intervals = lambda v: ci_quantiles(v, target, config.level, bonferroni)  # noqa: E731
    assert len(res.trace) > 1
    chain = grown_chain(source, config, 41, res.terminal_n)
    final = intervals(chain)
    assert res.half_widths.tobytes() == np.array([iv.half_width for iv in final]).tobytes()
    assert res.estimates.tobytes() == np.array([iv.center for iv in final]).tobytes()
    assert res.half_width == max(iv.half_width for iv in final)
    for n, half in res.trace:
        assert half == max(iv.half_width for iv in intervals(chain[:n]))
    assert res.trace[-1] == (res.terminal_n, res.half_width)
