"""Honest Monte Carlo error assessment for MCMC output.

Batch-means and overlapping-batch-means standard errors, subsampling
errors for quantiles, fixed-width sequential stopping rules, running
diagnostics, kernel density estimation, and the example samplers that
exercise them, all behind a deterministic seeded random source.
"""

from .diagnostics import (
    Kde1D,
    Kde2D,
    acf,
    kde_1d,
    kde_2d,
    rb_marginal_mu,
    rb_second_moment,
    running_mcse,
    running_mean,
    running_quantile_se,
    running_quantiles,
    silverman_bandwidth,
)
from .distributions import (
    normal_quantile,
    t_cdf,
    t_quantile,
)
from .mcse import (
    Interval,
    McseEstimate,
    QuantileSeSet,
    batch_layout,
    ci_mean,
    ci_quantiles,
    mcse_bm,
    mcse_obm,
    quantiles_type1,
    subsample_quantile_se,
)
from .rng import Rng
from .samplers import (
    Ar1Params,
    Ar1Source,
    Chain,
    NormalPosteriorParams,
    ar1_extend,
    ar1_run,
    nv_gibbs_run,
    tda_run,
)
from .stopping import StoppingConfig, StoppingResult, fixed_width_mean, fixed_width_quantiles

__version__ = "0.1.0"
