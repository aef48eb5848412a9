"""The example Markov chain samplers: AR(1), a data-augmentation sampler
targeting the 4-df Student t, and a two-block Gibbs sampler for a normal
mean/variance posterior.

Chains are append-only: extending a chain never mutates the prefix, so
running estimates computed on a prefix stay valid after more samples arrive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import Rng, _whole

__all__ = [
    "Ar1Params",
    "NormalPosteriorParams",
    "Chain",
    "ar1_run",
    "ar1_extend",
    "Ar1Source",
    "tda_run",
    "nv_gibbs_run",
]


@dataclass(frozen=True)
class Ar1Params:
    """x' = rho * x + N(0, tau^2) innovation; |rho| < 1 keeps it stationary."""

    rho: float
    tau: float = 1.0

    def __post_init__(self):
        if not abs(self.rho) < 1.0:
            raise ValueError(f"need |rho| < 1 for stationarity, got {self.rho}")
        if not 0.0 < self.tau < math.inf:
            raise ValueError(f"innovation sd tau must be positive and finite, got {self.tau}")

    @property
    def stationary_sd(self) -> float:
        return self.tau / math.sqrt(1.0 - self.rho * self.rho)


@dataclass(frozen=True)
class NormalPosteriorParams:
    """Sufficient statistics of the observed sample: size m, mean, biased variance."""

    m: int = 11
    y_bar: float = 1.0
    s2: float = 4.0

    def __post_init__(self):
        if self.m < 3:
            raise ValueError(f"sample size m must be at least 3, got {self.m}")
        if not math.isfinite(self.y_bar):
            raise ValueError(f"sample mean y_bar must be finite, got {self.y_bar}")
        if not 0.0 < self.s2 < math.inf:
            raise ValueError(f"sample variance s2 must be positive and finite, got {self.s2}")


@dataclass(frozen=True)
class Chain:
    """Ordered sampler output.

    ``values`` is (n,) for scalar chains and (n, 2) for paired ones; the
    pairing of components is never broken up.
    """

    values: np.ndarray

    def __post_init__(self):
        if len(self.values) < 1:
            raise ValueError("a chain must hold at least one state")

    def __len__(self) -> int:
        return len(self.values)


def _chain_length(n) -> int:
    if n < 1:
        raise ValueError(f"chain length must be positive, got {n}")
    return _whole("n", n)


# AR(1) -------------------------------------------------------------------


def _ar1_recur(x0: float, rho: float, eps: np.ndarray) -> np.ndarray:
    out = np.empty(eps.size + 1)
    out[0] = x = x0
    for i, e in enumerate(eps.tolist()):
        x = rho * x + e
        out[i + 1] = x
    return out


def ar1_run(n: int, params: Ar1Params, rng: Rng, x0: float = 1.0) -> Chain:
    """Chain of n states starting at x0 (the start value is state 1), which must
    be finite."""
    n = _chain_length(n)
    if not math.isfinite(x0):
        raise ValueError(f"start value x0 must be finite, got {x0}")
    eps = rng.normals(n - 1, 0.0, params.tau)
    return Chain(_ar1_recur(x0, params.rho, eps))


def ar1_extend(chain: Chain, p: int, params: Ar1Params, rng: Rng) -> Chain:
    """Append p freshly generated states; the input chain is left untouched."""
    if p < 1:
        raise ValueError(f"extension length must be positive, got {p}")
    eps = rng.normals(_whole("p", p), 0.0, params.tau)
    tail = _ar1_recur(float(chain.values[-1]), params.rho, eps)[1:]
    return Chain(np.concatenate((chain.values, tail)))


class Ar1Source:
    """Chain factory the fixed-width stopping rules drive."""

    def __init__(self, params: Ar1Params, x0: float = 1.0):
        self.params = params
        self.x0 = x0

    def start(self, n: int, rng: Rng) -> Chain:
        return ar1_run(n, self.params, rng, self.x0)

    def extend(self, chain: Chain, p: int, rng: Rng) -> Chain:
        return ar1_extend(chain, p, self.params, rng)

    def truth_mean(self) -> float:
        return 0.0

    def truth_quantile(self, p: float) -> float:
        from .distributions import normal_quantile

        return normal_quantile(p) * self.params.stationary_sd


# data augmentation for the t4 target ---------------------------------------


def tda_run(n: int, rng: Rng, init: tuple[float, float] = (1.0, 1.0)) -> Chain:
    """Bivariate (x, y) chain of n states, init included as state 1.

    x | y ~ N(0, 1/y), then y | x ~ Gamma(5/2, rate 2 + x^2/2).
    """
    n = _chain_length(n)
    x, y = float(init[0]), float(init[1])
    if not (math.isfinite(x) and 0.0 < y < math.inf):
        raise ValueError(f"init needs a finite x and a positive, finite latent y, got ({x}, {y})")
    out = np.empty((n, 2))
    out[0, 0], out[0, 1] = x, y
    standard_gamma, standard_normal = rng.standard_draws()
    # numpy's own normal(loc, sd) and gamma(shape, 1 / rate) arithmetic, so the
    # chain is the one those calls draw, bit for bit (0.0 + turns -0.0 into 0.0)
    for i in range(1, n):
        x = 0.0 + math.sqrt(1.0 / y) * standard_normal()
        y = (1.0 / (2.0 + 0.5 * x * x)) * standard_gamma(2.5)
        out[i, 0] = x
        out[i, 1] = y
    return Chain(out)


# Gibbs sampler for the normal mean/variance posterior ----------------------


def nv_gibbs_run(
    n: int,
    params: NormalPosteriorParams,
    rng: Rng,
    init: tuple[float, float] = (1.0, 1.0),
) -> Chain:
    """Bivariate (mu, theta) chain of n states, init included as state 1.

    Each transition refreshes the variance first: theta | mu is the
    reciprocal of a Gamma((m - 1)/2, rate m (s2 + (y_bar - mu)^2) / 2) draw,
    then mu | theta ~ N(y_bar, theta/m).
    """
    n = _chain_length(n)
    mu, theta = float(init[0]), float(init[1])
    if not (math.isfinite(mu) and 0.0 < theta < math.inf):
        raise ValueError(f"init needs a finite mean mu and a positive, finite variance theta, got ({mu}, {theta})")
    m, y_bar, s2 = params.m, params.y_bar, params.s2
    shape = 0.5 * (m - 1)
    out = np.empty((n, 2))
    out[0, 0], out[0, 1] = mu, theta
    standard_gamma, standard_normal = rng.standard_draws()
    # numpy's gamma and normal arithmetic, as in tda_run
    try:
        for i in range(1, n):
            theta = 1.0 / ((1.0 / (0.5 * m * (s2 + (y_bar - mu) ** 2))) * standard_gamma(shape))
            mu = y_bar + math.sqrt(theta / m) * standard_normal()
            out[i, 0] = mu
            out[i, 1] = theta
    except (OverflowError, ZeroDivisionError):  # (y_bar - mu) ** 2 overflows, or the rate does and theta divides by 0
        raise ValueError(
            f"Gamma rate m (s2 + (y_bar - mu)^2) / 2 overflows the float range at state index {i} (mu = {mu})"
        ) from None
    if theta == math.inf:  # theta = rate / draw overflowed in the last update, so no later rate raised
        raise ValueError(f"theta = rate / Gamma draw overflows the float range at state index {n - 1}")
    return Chain(out)
