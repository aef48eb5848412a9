"""Seeded random source shared by every sampler in the package.

A single ``Rng`` owns one PCG64 stream. The seed fully determines every
draw sequence, and draws are identical across runs and platforms.
Rejection-based draws (gamma) consume a variable number of underlying
uniforms, so determinism is a property of the uniform stream, not of a
fixed draw count.

Two kinds of draw read the stream: ``normals``, a batch of normal
variates, and the stream's own scalar ``standard_gamma`` and
``standard_normal`` from ``standard_draws``, which the Gibbs and
data-augmentation loops call once per variate. A Gamma(shape, rate) draw,
density proportional to ``x**(shape-1) * exp(-rate*x)``, is
``(1.0 / rate) * standard_gamma(shape)``, exactly as numpy forms its
``gamma(shape, 1.0 / rate)``; N(mean, sd) is ``mean + sd * standard_normal()``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["Rng"]

_UINT64_MAX = 2**64 - 1


def _whole(name: str, count) -> int:
    """``count`` as an int; ValueError naming it unless it is a whole number."""
    if count % 1 != 0:  # also true for inf and nan
        raise ValueError(f"{name} must be a whole number, got {count}")
    return int(count)


class Rng:
    """Deterministic random generator: batch normals, and the stream's bound
    scalar standard gamma and standard normal draws for per-variate loops.

    A generator is owned by one thread of execution at a time; replication
    studies should give each replicate its own ``spawn(index)`` stream
    instead of sharing a single instance.
    """

    def __init__(self, seed: int):
        self.seed = self.check_seed(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    @staticmethod
    def check_seed(seed) -> int:
        """``seed`` (an int, a numpy integer or a decimal string) as an int, if it
        fits in an unsigned 64-bit integer; else ValueError. A float is refused,
        not truncated."""
        if not isinstance(seed, (int, np.integer, str)):
            raise ValueError(f"seed must be an integer, got {seed!r}")
        seed = int(seed)
        if not 0 <= seed <= _UINT64_MAX:
            raise ValueError(f"seed must fit in an unsigned 64-bit integer, got {seed}")
        return seed

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed})"

    def spawn(self, index: int) -> "Rng":
        """Independent generator for replicate `index` (seed = base seed + index)."""
        if not isinstance(index, (int, np.integer)) or index < 0:
            raise ValueError(f"replicate index must be a nonnegative integer, got {index!r}")
        return Rng((self.seed + int(index)) % (_UINT64_MAX + 1))

    def standard_draws(self) -> tuple[Callable[[float], float], Callable[[], float]]:
        """The stream's bound ``(standard_gamma, standard_normal)``: one Gamma(shape, 1)
        or N(0, 1) variate per call, with numpy's argument checks only."""
        return self._gen.standard_gamma, self._gen.standard_normal

    def normals(self, n: int, mean: float = 0.0, sd: float = 1.0) -> np.ndarray:
        if sd <= 0.0:
            raise ValueError(f"normal draw needs sd > 0, got {sd}")
        return self._gen.normal(mean, sd, size=_whole("n", n))
