"""Fixed-width sequential stopping rules.

The simulation grows until the interval half-width, padded by 1/N, drops
to the target epsilon: ``while half + 1/N > epsilon: N += step``. The 1/N
term forces N >= 1/epsilon before termination can even be considered.
Both rules run one loop, ``_grow``; each check recomputes the reported
intervals from scratch, exactly as a batch re-analysis would, with
``ci_mean`` (OBM, df n - b + 1) for the mean and ``ci_quantiles``
(subsampling, optionally Bonferroni-adjusted) for quantiles, so the rule
stops on the same intervals the estimators report. Checks happen only
every ``step`` iterations so the total cost stays modest.

Hitting ``max_n`` without meeting the criterion is a reportable outcome
(``converged=False``), not an exception, so replication studies can tally
non-convergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .mcse import MIN_SAMPLES, Interval, _check_level, ci_mean, ci_quantiles
from .rng import Rng, _whole

__all__ = ["StoppingConfig", "StoppingResult", "fixed_width_mean", "fixed_width_quantiles"]


@dataclass(frozen=True)
class StoppingConfig:
    epsilon: float = 0.1
    level: float = 0.9
    step: int = 1000
    pilot_n: int = 2000
    max_n: int = 200_000

    def __post_init__(self):
        if not self.epsilon > 0.0:
            raise ValueError(f"target half-width epsilon must be positive, got {self.epsilon}")
        _check_level(self.level)
        for name, count in (("step", self.step), ("pilot_n", self.pilot_n), ("max_n", self.max_n)):
            _whole(name, count)
        if self.step < 1:
            raise ValueError(f"step must be a positive integer, got {self.step}")
        if self.pilot_n < MIN_SAMPLES:
            raise ValueError(f"pilot_n must be at least {MIN_SAMPLES}, got {self.pilot_n}")
        if self.pilot_n > self.max_n:
            raise ValueError(f"pilot_n {self.pilot_n} exceeds max_n {self.max_n}")


@dataclass
class StoppingResult:
    terminal_n: int
    half_width: float  # the half-width that drove the stop (max over functionals)
    half_widths: np.ndarray
    estimates: np.ndarray
    converged: bool
    trace: list = field(default_factory=list)  # (N, half) at every check


def _grow(
    source, config: StoppingConfig, rng: Rng, intervals: Callable[[np.ndarray], list[Interval]]
) -> StoppingResult:
    # the largest half-width among the intervals of the current chain drives the stop
    chain = source.start(config.pilot_n, rng)
    trace = []
    while True:
        n = len(chain)
        ivs = intervals(chain.values)
        half = max(iv.half_width for iv in ivs)
        trace.append((n, half))
        if half + 1.0 / n <= config.epsilon or n >= config.max_n:
            break
        chain = source.extend(chain, config.step, rng)
    return StoppingResult(
        terminal_n=n,
        half_width=half,
        half_widths=np.array([iv.half_width for iv in ivs]),
        estimates=np.array([iv.center for iv in ivs]),
        converged=half + 1.0 / n <= config.epsilon,
        trace=trace,
    )


def fixed_width_mean(source, config: StoppingConfig, rng: Rng) -> StoppingResult:
    """Grow the chain until the OBM t interval for the mean is narrow enough.

    ``source`` provides ``start(n, rng)`` and ``extend(chain, p, rng)``.
    """
    return _grow(source, config, rng, lambda v: [ci_mean(v, "OBM", config.level)])


def fixed_width_quantiles(
    source,
    probabilities: Sequence[float],
    config: StoppingConfig,
    rng: Rng,
    bonferroni: bool = False,
) -> StoppingResult:
    """Same loop with the largest per-quantile half-width driving the stop.

    With ``bonferroni`` the critical level is inflated to 1 - (1-level)/k
    so the k intervals hold simultaneously.
    """
    return _grow(source, config, rng, lambda v: ci_quantiles(v, probabilities, config.level, bonferroni))
