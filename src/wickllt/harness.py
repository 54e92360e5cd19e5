"""End-to-end rate experiment for the smoothed standardized-sum densities.

For a density f with unit mass, the smoothed standardized sum of n
independent copies has density

    rho_n = (gamma(sqrt(alpha/n)) f~)^{wick n},        f~ = centered f,

and its L1 distance to the smoothed limit gamma(sqrt(alpha)) xi decays at
rate C / sqrt(n). The constant comes from the telescoping chain: with
beta = alpha / (1 - alpha) and the smallest n0 >= 1 keeping sqrt(beta/n0)
inside [0, 1],

    C = n0^{3/2} * ( sum_{k>=3} k! |fhat_k - ghat_k|^2 )^{1/2}

over the kernels of gamma(sqrt(beta/n0)) applied to f~ and to the limit
series. Degrees 0..2 of the two objects agree by construction, which is what
lets the sum start at k = 3.

L1 distances have no coefficient formula; they are measured by tensorized
Gauss-Hermite quadrature (low dimension, with a node-doubling error
estimate) or by Monte Carlo against the reference measure (high dimension,
with a standard error). A sweep fails loudly when a measured distance
exceeds its bound beyond the distance error.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .audit import AssumptionReport, AssumptionViolationError, audit_density
from .basis import ChaosVector, eval_many, eval_stacked, kernel_view
from .config import DistanceConfig, ExperimentConfig
from .limit_density import gaussian_limit_series
from .measures import sample
from .quadrature import MAX_QUADRATURE_DIM, tensor_rule
from .streams import STREAM_DISTANCE, child_seed, substream
from .wick import center_density, excess_powers, gamma, power_from_ladder, wick_product
from .wick import wick_power  # noqa: F401  perfbench's tests wrap harness.wick_power

# The 1% point of the Kolmogorov distribution, scipy.special.kolmogi(0.01):
# sqrt(n) times the two-sided KS statistic exceeds it with probability 0.01
# as n grows.
KOLMOGOROV_1PCT = 1.6276236115189504


class BoundViolationError(Exception):
    """A sweep row exceeded its theoretical bound beyond the distance error."""

    def __init__(self, message: str, table: "RateTable | None" = None, rows=None):
        super().__init__(message)
        self.table = table
        self.rows = rows or []


class DistanceResult(NamedTuple):
    value: float
    error: float


def sum_density(
    f: ChaosVector,
    n: int,
    alpha: float,
    report: AssumptionReport | None = None,
    override: bool = False,
) -> ChaosVector:
    """Density of the alpha-smoothed standardized sum of n copies of f.

    Centers f, applies the degreewise scaling sqrt(alpha/n), and takes the
    n-th Wick power (exact for all represented degrees) from the ladder of
    the centered density, as rate_sweep does. The degree-0 coefficient stays
    exactly one.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly inside (0, 1), got {alpha}")
    if report is None:
        report = audit_density(f)
    if not report.all_passed and not override:
        raise AssumptionViolationError(
            "assumption audit failed: " + ", ".join(report.failing())
        )
    centered = center_density(f)
    ladder = excess_powers(centered, top=n)
    return power_from_ladder(float(centered.coeffs[0]), ladder, n, math.sqrt(alpha / n))


def l1_distances(
    fs: Sequence[ChaosVector],
    g: ChaosVector,
    spec: DistanceConfig | None = None,
    seed: int = 0,
) -> list[DistanceResult]:
    """Integral of |f - g| against the reference measure for every f in fs.

    Quadrature route (dimension <= MAX_QUADRATURE_DIM): evaluate at n and 2n
    Gauss-Hermite nodes per axis, n = max(2K, 8), and report the difference
    as the error (the integrand has a kink, so the rule is not exact and the
    estimate matters). Monte-Carlo route: mean of
    |f - g| over Gaussian samples with its standard error. Every f is
    measured on the same points (the same grids, or one sample drawn from
    the seed's distance stream), and the basis is evaluated there once for
    all of them; each result equals l1_distance(f, g, spec, seed).
    """
    spec = spec or DistanceConfig()
    diffs = [f - g for f in fs]
    d = g.space.dimension
    if spec.method == "quadrature":
        if d > MAX_QUADRATURE_DIM:
            raise ValueError(f"quadrature distance limited to dimension <= {MAX_QUADRATURE_DIM}")
        nodes = spec.coarse_nodes(g.space.max_degree)
        pts, wts = tensor_rule(d, nodes)
        coarse = [float(np.dot(wts, row)) for row in np.abs(eval_stacked(diffs, pts))]
        pts2, wts2 = tensor_rule(d, 2 * nodes)
        fine = [float(np.dot(wts2, row)) for row in np.abs(eval_stacked(diffs, pts2))]
        return [DistanceResult(b, abs(b - a)) for a, b in zip(coarse, fine)]
    rng = substream(seed, STREAM_DISTANCE)
    pts = rng.standard_normal((spec.samples, d))
    return [
        DistanceResult(float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(spec.samples)))
        for vals in np.abs(eval_stacked(diffs, pts))
    ]


def l1_distance(f: ChaosVector, g: ChaosVector, spec: DistanceConfig | None = None, seed: int = 0) -> DistanceResult:
    """Integral of |f - g| against the reference measure, with an error estimate.

    The one-element case of l1_distances, which documents both routes.
    """
    return l1_distances([f], g, spec, seed)[0]


class RateConstant(NamedTuple):
    c: float
    n0: int
    beta: float
    tail_sum: float


def rate_constant(f: ChaosVector, alpha: float) -> RateConstant:
    """Constant of the 1/sqrt(n) bound for the density f at smoothing alpha.

    beta = alpha/(1-alpha); n0 = max(1, ceil(beta)) is the smallest index
    keeping the scaling argument inside [0, 1]; the tail sum runs over
    degrees 3..max_degree of the scaled difference between the centered
    density and the limit series. A space of max_degree below 3 has no such
    degree, and is a ValueError.
    """
    limit = gaussian_limit_series(kernel_view(f).g2, f.space).series
    return _rate_constant(center_density(f), limit, alpha)


def _rate_constant(centered: ChaosVector, limit: ChaosVector, alpha: float) -> RateConstant:
    # rate_constant from the centered density and its limit series, which
    # rate_sweep builds once and also uses for its rows and target.
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly inside (0, 1), got {alpha}")
    if centered.space.max_degree < 3:
        raise ValueError(
            "max_degree below 3: no degree-3 content is representable, so the rate "
            "constant is zero by construction and the sweep would be vacuous"
        )
    beta = alpha / (1.0 - alpha)
    # epsilon guard: float noise in beta must not bump the ceiling (e.g.
    # alpha = 0.8 gives beta = 4 + 1 ulp); the scaling argument is clamped
    # back into [0, 1] for the same reason
    n0 = max(1, math.ceil(beta - 1e-9))
    lam = min(1.0, math.sqrt(beta / n0))
    diff = gamma(lam, centered) - gamma(lam, limit)
    tail = float(diff.degree_norms_sq()[3:].sum())
    return RateConstant(n0**1.5 * math.sqrt(tail), n0, beta, tail)


@dataclass(frozen=True)
class RateRow:
    n: int
    l1: float
    bound: float
    error: float
    seconds: float


@dataclass(frozen=True)
class RateTable:
    rows: tuple[RateRow, ...]
    constant: float
    n0: int
    beta: float
    power_ladder: dict  # {"rungs": J, "seconds": time to build u ... u^{<>J}}


def rate_sweep(
    config: ExperimentConfig,
    density: ChaosVector,
    override_audit: bool = False,
    report: AssumptionReport | None = None,
) -> tuple[RateTable, AssumptionReport]:
    """Measure the L1 distance row per n and check each row against its bound.

    The caller builds the density: llt from its density section, sde from
    its simulated shifts. It is centered, the limit series built and the
    ladder of Wick powers of its excess (excess_powers) climbed once per
    sweep; each row's density is then a weighted sum of the rungs, and a
    row's seconds are the time of that sum. All rows are measured in one
    l1_distances call on the same points (common random numbers), so the
    measured distances of successive n share their Monte-Carlo noise. The density is audited
    against config.audit_grid unless the caller passes the report of that
    audit.
    """
    space = density.space
    config.require_llt_fields(space.dimension, space.max_degree)
    if report is None:
        report = audit_density(density, config.audit_grid)
    if not report.all_passed and not override_audit:
        raise AssumptionViolationError(
            "assumption audit failed: " + ", ".join(report.failing())
        )
    centered = center_density(density)
    limit = gaussian_limit_series(kernel_view(density).g2, space).series
    constant = _rate_constant(centered, limit, config.alpha)
    target = gamma(math.sqrt(config.alpha), limit)
    distance_seed = child_seed(config.seed, STREAM_DISTANCE)

    start = time.perf_counter()
    ladder = excess_powers(centered)
    power_ladder = {"rungs": len(ladder) - 1, "seconds": time.perf_counter() - start}
    ns = sorted(config.n_values)
    densities, seconds = [], []
    for n in ns:
        start = time.perf_counter()
        lam = math.sqrt(config.alpha / n)
        densities.append(power_from_ladder(float(centered.coeffs[0]), ladder, n, lam))
        seconds.append(time.perf_counter() - start)
    distances = l1_distances(densities, target, config.distance, seed=distance_seed)
    rows = [
        RateRow(n=n, l1=dist, bound=constant.c / math.sqrt(n), error=err, seconds=s)
        for n, s, (dist, err) in zip(ns, seconds, distances)
    ]
    table = RateTable(tuple(rows), constant.c, constant.n0, constant.beta, power_ladder)
    # absolute floor below which a measured distance is evaluation noise
    # (coefficients agree to roundoff, e.g. the fixed-point density)
    noise = 1e-12
    bad = [row for row in rows if row.l1 > row.bound + row.error + noise]
    if bad:
        detail = "; ".join(
            f"n={row.n}: l1={row.l1:.6g} > bound={row.bound:.6g} + err={row.error:.6g}"
            for row in bad
        )
        raise BoundViolationError(f"rate bound violated: {detail}", table=table, rows=bad)
    return table, report


class YoungReport(NamedTuple):
    lhs: float
    rhs: float
    slack: float
    holds: bool


def young_check(fs: Sequence[ChaosVector], alphas: Sequence[float]) -> YoungReport:
    """Product-norm inequality at exponent two.

    Verifies ||gamma(sqrt(a1)) f1 <> ... <> gamma(sqrt(an)) fn||_2 <=
    prod ||f_i||_2 for weights summing to one. Exponent two is the one case
    where coefficient sums give both sides exactly; other exponents would
    need numerical Lp integration and are deliberately not offered.
    """
    if len(fs) != len(alphas) or not fs:
        raise ValueError("need one weight per factor")
    if abs(sum(alphas) - 1.0) > 1e-12:
        raise ValueError(f"weights must sum to one, got {sum(alphas)!r}")
    if any(a < 0 for a in alphas):
        raise ValueError("weights must be nonnegative")
    acc = None
    for vec, a in zip(fs, alphas):
        scaled = gamma(math.sqrt(a), vec)
        acc = scaled if acc is None else wick_product(acc, scaled)
    lhs = acc.norm()
    rhs = 1.0
    for vec in fs:
        rhs *= vec.norm()
    return YoungReport(lhs, rhs, rhs - lhs, lhs <= rhs + 1e-12)


class ConvolutionReport(NamedTuple):
    ks_statistic: float
    critical_value: float
    passed: bool
    samples: int


def ks_against_density(values: np.ndarray, predicted: ChaosVector, grid_halfwidth: float = 10.0) -> ConvolutionReport:
    """KS statistic of scalar samples against a one-dimensional chaos density.

    The reference CDF comes from a fine trapezoid integration of the density
    against the Gaussian weight (clipped at zero where truncation dips
    negative, then renormalized). Critical value at the 1% level.
    """
    if predicted.space.dimension != 1:
        raise ValueError("KS comparison needs a one-dimensional density")
    grid = np.linspace(-grid_halfwidth, grid_halfwidth, 8001)
    weight = np.exp(-grid**2 / 2.0) / np.sqrt(2 * np.pi)
    dens = np.clip(eval_many(predicted, grid[:, None]), 0.0, None) * weight
    cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) * 0.5 * np.diff(grid))])
    cdf /= cdf[-1]
    # The two-sided KS statistic and the 1% point of its asymptotic law, as
    # scipy.stats computes them.
    n = values.size
    at = np.interp(np.sort(values), grid, cdf)
    statistic = float(
        max((np.arange(1.0, n + 1) / n - at).max(), (at - np.arange(0.0, n) / n).max())
    )
    critical = KOLMOGOROV_1PCT / math.sqrt(n)
    return ConvolutionReport(statistic, critical, statistic < critical, n)


def empirical_convolution_check(
    f: ChaosVector,
    g: ChaosVector,
    alphas: tuple[float, float],
    samples: int = 100_000,
    seed: int = 0,
) -> ConvolutionReport:
    """Sampling test of the Wick-convolution identity for weighted sums.

    Draws X1 ~ f dmu and X2 ~ g dmu independently, forms
    sqrt(a1) X1 + sqrt(a2) X2, and compares the empirical law against the
    chaos-predicted density gamma(sqrt(a1)) f <> gamma(sqrt(a2)) g through a
    Kolmogorov-Smirnov statistic at the 1% critical value. One-dimensional
    only (the KS route needs a scalar CDF).
    """
    if f.space.dimension != 1:
        raise ValueError("empirical convolution check is one-dimensional")
    a1, a2 = alphas
    if abs(a1 + a2 - 1.0) > 1e-12:
        raise ValueError("smoothing weights must sum to one")
    x1 = sample(f, samples, seed=child_seed(seed, 1))[:, 0]
    x2 = sample(g, samples, seed=child_seed(seed, 2))[:, 0]
    sums = math.sqrt(a1) * x1 + math.sqrt(a2) * x2
    predicted = wick_product(gamma(math.sqrt(a1), f), gamma(math.sqrt(a2), g))
    return ks_against_density(sums, predicted)
