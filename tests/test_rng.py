import math
from statistics import NormalDist

import numpy as np
import pytest

from mcmc_confidence import Rng


def gammas(rng, n, shape, rate):
    # shape-rate convention: a Gamma(shape, rate) draw is a standard gamma draw over rate
    standard_gamma = rng.standard_draws()[0]
    return np.fromiter(((1.0 / rate) * standard_gamma(shape) for _ in range(n)), dtype=float, count=n)


def test_same_seed_same_streams():
    a, b = Rng(1976), Rng(1976)
    assert np.array_equal(a.normals(1000), b.normals(1000))
    assert np.array_equal(gammas(a, 1000, 2.5, 2.0), gammas(b, 1000, 2.5, 2.0))


def test_distinct_seeds_differ():
    assert not np.array_equal(Rng(1).normals(100), Rng(2).normals(100))
    assert not np.array_equal(gammas(Rng(1), 100, 2.5, 2.0), gammas(Rng(2), 100, 2.5, 2.0))


def test_mixed_op_sequence_reproducible():
    def run(seed):
        r = Rng(seed)
        standard_gamma, standard_normal = r.standard_draws()
        out = [2.0 * standard_normal(), standard_gamma(4.5) / 22.0]
        out.extend(r.normals(17).tolist())
        out.append(-1.0 + 0.5 * standard_normal())
        out.extend(gammas(r, 5, 1.0, 1.0).tolist())
        return out

    assert run(42) == run(42)


def test_scalar_and_batch_draws_share_the_stream():
    r1, r2 = Rng(4), Rng(4)
    standard_normal = r2.standard_draws()[1]
    assert np.array_equal(r1.normals(50), np.array([standard_normal() for _ in range(50)]))


def test_standard_draws_are_numpy_gamma_and_normal_on_the_same_stream():
    # (1/rate) * standard_gamma(shape) and mean + sd * standard_normal() are
    # numpy's own gamma(shape, 1/rate) and normal(mean, sd), bit for bit
    standard_gamma, standard_normal = Rng(21).standard_draws()
    gen = np.random.Generator(np.random.PCG64(21))
    for shape, rate, mean, sd in ((2.5, 2.0, 0.0, 1.0), (4.5, 22.0, -1.0, 0.5), (1.0, 1e-3, 3.0, 7.0)):
        assert (1.0 / rate) * standard_gamma(shape) == gen.gamma(shape, 1.0 / rate)
        assert mean + sd * standard_normal() == gen.normal(mean, sd)


def test_batch_composition():
    a, b = Rng(3), Rng(3)
    assert np.array_equal(np.concatenate([a.normals(137), a.normals(63)]), b.normals(200))


def test_seed_validation():
    with pytest.raises(ValueError):
        Rng(-1)
    with pytest.raises(ValueError):
        Rng(2**64)
    Rng(2**64 - 1)


@pytest.mark.parametrize("seed", [1.5, 1e19, 3.0, np.float64(2.0), None, [1]])
def test_seed_that_is_not_an_integer_is_refused(seed):
    with pytest.raises(ValueError, match="^seed must be an integer, got "):
        Rng(seed)


def test_integer_seeds_of_every_accepted_type():
    assert Rng(np.uint64(2**64 - 1)).seed == 2**64 - 1
    assert Rng(np.int32(7)).seed == 7
    assert Rng("12").seed == 12 and type(Rng("12").seed) is int


@pytest.mark.parametrize("index", [2.7, 3.0, np.float64(1.0), "2"])
def test_spawn_takes_an_integer_index(index):
    with pytest.raises(ValueError, match="^replicate index must be a nonnegative integer, got "):
        Rng(1).spawn(index)
    assert Rng(1).spawn(np.int64(2)).seed == 3


def test_spawn_offsets_seed():
    base = Rng(100)
    child = base.spawn(3)
    assert child.seed == 103
    assert np.array_equal(child.normals(10), Rng(103).normals(10))
    assert np.array_equal(gammas(base.spawn(4), 10, 2.5, 2.0), gammas(Rng(104), 10, 2.5, 2.0))
    with pytest.raises(ValueError):
        base.spawn(-1)


def test_normal_moments():
    z = Rng(7).normals(10**6)
    assert abs(float(z.mean())) < 0.005
    assert abs(float(z.var()) - 1.0) < 0.01


def test_normal_empirical_cdf_points():
    z = Rng(8).normals(10**6)
    for point in (-1.96, 0.0, 1.96):
        assert abs(float(np.mean(z <= point)) - NormalDist().cdf(point)) < 0.005


def test_normal_location_shift_is_exact():
    base = Rng(11).normals(1000, 0.0, 1.0)
    shifted = Rng(11).normals(1000, 5.0, 1.0)
    assert np.array_equal(shifted, base + 5.0)


@pytest.mark.parametrize("n", [2.7, 1.0 + 1e-15, math.inf, math.nan])
def test_normals_take_a_whole_number_count(n):
    with pytest.raises(ValueError) as exc:
        Rng(1).normals(n)
    assert str(exc.value) == f"n must be a whole number, got {n}"


def test_normals_of_a_whole_float_count():
    assert np.array_equal(Rng(1).normals(3.0), Rng(1).normals(3))
    assert Rng(1).normals(np.int64(0)).shape == (0,)


def test_normal_rejects_bad_sd():
    r = Rng(0)
    for sd in (0.0, -1.0):
        with pytest.raises(ValueError):
            r.normals(5, 0.0, sd)


def test_gamma_positive_and_mean_examples():
    g = gammas(Rng(5), 10**6, 2.5, 2.0)
    assert float(g.min()) > 0.0
    assert abs(float(g.mean()) - 1.25) < 0.01 * 1.25
    g = gammas(Rng(6), 10**6, 4.5, 22.0)
    target = 4.5 / 22.0
    assert abs(float(g.mean()) - target) < 0.01 * target


@pytest.mark.parametrize("shape,rate", [(2.5, 2.0), (4.5, 22.0), (1.0, 1.0)])
def test_gamma_moment_recovery(shape, rate):
    n = 10**6
    g = gammas(Rng(int(10 * shape + rate)), n, shape, rate)
    mean, var = shape / rate, shape / rate**2
    se_mean = math.sqrt(var / n)
    assert abs(float(g.mean()) - mean) < 3.0 * se_mean
    # sampling error of the variance uses the gamma's excess kurtosis 6/shape
    se_var = var * math.sqrt((2.0 + 6.0 / shape) / n)
    assert abs(float(g.var(ddof=1)) - var) < 3.0 * se_var
