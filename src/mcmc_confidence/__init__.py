"""Honest Monte Carlo error assessment for MCMC output.

Batch-means and overlapping-batch-means standard errors, subsampling
errors for quantiles, fixed-width sequential stopping rules, running
diagnostics, kernel density estimation, and the example samplers that
exercise them, all behind a deterministic seeded random source.

The public API is each module's ``__all__``, republished here.
"""

from .diagnostics import *
from .distributions import *
from .mcse import *
from .rng import *
from .samplers import *
from .stopping import *

__version__ = "0.1.0"
