"""Hermite-chaos and Wick-calculus toolkit on finite-dimensional Gaussian space.

The package represents square-integrable densities on (R^d, standard
Gaussian) by truncated Hermite-chaos coefficient vectors, implements the
Wick product / degreewise scaling calculus on them, constructs the Gaussian
limit density of standardized sums, audits the standing hypotheses of the
limit theorem numerically, and measures the 1/sqrt(n) L1 convergence rate
of smoothed standardized-sum densities in desk-scale experiments.
"""

__version__ = "0.1.0"

from .basis import (
    ChaosVector,
    GaussianSpace,
    KernelView,
    chaos_inner,
    enumerate_indices,
    eval_at,
    eval_many,
    eval_stacked,
    kernel_view,
)
from .wick import (
    TruncationPolicy,
    center_density,
    gamma,
    s_transform,
    stochastic_exponential,
    wick_exp,
    wick_power,
    wick_product,
)
from .limit_density import (
    LimitDensity,
    gaussian_limit_closed_form,
    gaussian_limit_series,
    limit_l2_norms,
    self_similarity_defect,
)
from .audit import AssumptionReport, AssumptionViolationError, audit_density

__all__ = [
    "ChaosVector",
    "GaussianSpace",
    "KernelView",
    "chaos_inner",
    "enumerate_indices",
    "eval_at",
    "eval_many",
    "eval_stacked",
    "kernel_view",
    "TruncationPolicy",
    "center_density",
    "gamma",
    "s_transform",
    "stochastic_exponential",
    "wick_exp",
    "wick_power",
    "wick_product",
    "LimitDensity",
    "gaussian_limit_closed_form",
    "gaussian_limit_series",
    "limit_l2_norms",
    "self_similarity_defect",
    "AssumptionReport",
    "AssumptionViolationError",
    "audit_density",
    "__version__",
]
