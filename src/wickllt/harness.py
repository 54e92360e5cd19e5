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
from functools import partial
from typing import NamedTuple, Sequence

import numpy as np

from .audit import AssumptionReport, audit_density, require_passed
from .basis import ChaosVector, eval_axis_products, eval_stacked, kernel_view
from .basis import power_sum_chunk, product_masses
from .config import ConfigError, Density, DistanceConfig, ExperimentConfig
from .limit_density import gaussian_limit_series
from .measures import grid_cdf, sample
from .quadrature import MAX_QUADRATURE_DIM, tensor_rule
from .streams import STREAM_DISTANCE, child_seed, substream
from .wick import center_density, excess_powers, gamma, pair_footprint, power_from_ladder
from .wick import wick_power, wick_product  # noqa: F401  perfbench's tests wrap harness.wick_power
from .basis import eval_many  # noqa: F401  perfbench's tests wrap harness.eval_many

# The 1% point of the Kolmogorov distribution, scipy.special.kolmogi(0.01):
# sqrt(n) times the two-sided KS statistic exceeds it with probability 0.01
# as n grows.
KOLMOGOROV_1PCT = 1.6276236115189504
# Absolute floor below which a measured distance is evaluation noise
# (coefficients agree to roundoff, e.g. the fixed-point density).
NOISE_FLOOR = 1e-12


class BoundViolationError(Exception):
    """A sweep row exceeded its theoretical bound beyond the distance error.

    Carries the sweep's table, its violating rows and the audit it ran on.
    """

    def __init__(self, message: str, table: "RateTable", rows, report: AssumptionReport):
        super().__init__(message)
        self.table = table
        self.rows = rows
        self.report = report


class DistanceResult(NamedTuple):
    value: float
    error: float


def sum_density(f: ChaosVector, n: int, alpha: float) -> ChaosVector:
    """Density of the alpha-smoothed standardized sum of n copies of f.

    Centers f, applies the degreewise scaling sqrt(alpha/n), and takes the
    n-th Wick power (exact for all represented degrees) from the ladder of
    the centered density, as rate_sweep does. The degree-0 coefficient stays
    exactly one. Like rate_constant it takes any unit-mass f: the audit of
    the standing hypotheses is rate_sweep's.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly inside (0, 1), got {alpha}")
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
    all of them; each result equals l1_distance(f, g, spec, seed). The
    samples are drawn per evaluation chunk, which equals one draw of all;
    rate_sweep's product route draws them through the same _distances.
    """
    diffs, space = [f - g for f in fs], g.space
    shape, chunk = (space.dimension, space.max_degree), space.split().chunk
    return _distances(partial(eval_stacked, diffs), len(diffs), shape, chunk, spec, seed)


def _distances(evaluate, count: int, shape, chunk: int, spec, seed: int) -> list[DistanceResult]:
    # l1_distances from evaluate(points, out), which writes count differences,
    # for densities of shape (d, K); Monte-Carlo points come in chunks of chunk
    spec = spec or DistanceConfig()
    d, max_degree = shape
    if spec.method == "quadrature":
        if d > MAX_QUADRATURE_DIM:
            raise ValueError(f"quadrature distance limited to dimension <= {MAX_QUADRATURE_DIM}")
        nodes = spec.coarse_nodes(max_degree)
        sums = []
        for n in (nodes, 2 * nodes):
            pts, wts = tensor_rule(d, n)
            rows = np.abs(evaluate(pts, np.empty((count, len(pts)))))
            sums.append([float(np.dot(wts, row)) for row in rows])
        return [DistanceResult(b, abs(b - a)) for a, b in zip(*sums)]
    rng, total = substream(seed, STREAM_DISTANCE), spec.samples
    chunks = (rng.standard_normal((min(chunk, total - i), d)) for i in range(0, total, chunk))
    values = evaluate(chunks, np.empty((count, total)))
    return [
        DistanceResult(float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(total)))
        for vals in np.abs(values, out=values)
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
    degree, and is a ValueError; an alpha so small that a nonzero difference
    there underflows to a zero tail is a ConfigError.
    """
    limit = gaussian_limit_series(kernel_view(f).g2, f.space).series
    return _rate_constant(center_density(f), limit, alpha)


def _rate_constant(
    centered: ChaosVector, limit: ChaosVector, alpha: float, dimension: int | None = None
) -> RateConstant:
    # rate_constant from the centered density and its limit series, which
    # rate_sweep builds once and also uses for its rows and target; with a
    # dimension, from those of a product_hermite density, one-axis series
    # whose products over dimension coordinates C measures (product_masses).
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

    def masses(f, g):  # squared L2 mass per degree of f - g, or of their products
        if dimension is None:
            return (f - g).degree_norms_sq()
        return product_masses(f.coeffs, g.coeffs, dimension)

    tail = float(masses(gamma(lam, centered), gamma(lam, limit))[3:].sum())
    if tail == 0.0 and masses(centered, limit)[3:].sum() > 0.0:
        # lam**k flushed a nonzero difference to zero: C = 0 is a fixed point's
        raise ConfigError(
            f"alpha {alpha!r} is too small: the scaled degree >= 3 difference "
            "from the limit underflows to zero"
        )
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
    # {"rungs": J, "seconds": time to build u ... u^{<>J}, "dimension": of its space}
    power_ladder: dict
    pairs: tuple[int, int]  # pair_footprint of the space the ladder ran in


def rate_sweep(
    config: ExperimentConfig,
    density: Density | ChaosVector,
    report: AssumptionReport | None = None,
) -> tuple[RateTable, AssumptionReport]:
    """Measure the L1 distance row per n and check each row against its bound.

    The caller builds the density: llt from its density section, sde from
    its simulated shifts (a bare ChaosVector, which counts as kind
    coefficients). It is centered, the limit series built and the ladder of
    Wick powers of its excess (excess_powers) climbed once per sweep; each
    row's density is then a weighted sum of the rungs, whose time is the
    row's seconds. A product_hermite density takes these steps on its axis
    series in GaussianSpace(1, K), since each acts coordinate by coordinate
    and commutes with the cut at total degree K: C comes from one-axis
    masses (product_masses), eval_axis_products measures the rows and the
    target, and no GaussianSpace(d, K) is built. All rows are measured on
    l1_distances' points (common random numbers).
    The density is audited unless the caller passes that audit's report; a
    failed verdict, or a bound at or below NOISE_FLOOR (no row could fail),
    stops the sweep before any row. The ladder and its pair table are freed
    before the distances.
    """
    if isinstance(density, ChaosVector):
        density = Density(density)
    shape = density.shape
    config.require_llt_fields(*shape)
    if report is None:
        report = audit_density(density)
    require_passed(report.verdicts)
    f, product = density.vector, density.kind == "product_hermite"
    algebra = f.space
    centered = center_density(f)
    limit = gaussian_limit_series(kernel_view(f).g2, algebra).series
    constant = _rate_constant(centered, limit, config.alpha, shape[0] if product else None)
    ns = sorted(config.n_values)
    floored = [n for n in ns if constant.c / math.sqrt(n) <= NOISE_FLOOR]
    if constant.c > 0.0 and floored:  # every l1 up to the floor would pass those rows
        raise ConfigError(
            f"alpha {config.alpha!r} is too small: the bound at n={floored[0]} is at or "
            f"below the {NOISE_FLOOR:g} noise floor of a measured distance"
        )
    target = gamma(math.sqrt(config.alpha), limit)
    distance_seed = child_seed(config.seed, STREAM_DISTANCE)

    start = time.perf_counter()
    ladder = excess_powers(centered)
    elapsed = time.perf_counter() - start
    power_ladder = {"rungs": len(ladder) - 1, "seconds": elapsed, "dimension": algebra.dimension}
    algebra.release("pair_table")  # the ladder was the sweep's last product
    densities, seconds = [], []
    for n in ns:
        start = time.perf_counter()
        lam = math.sqrt(config.alpha / n)
        densities.append(power_from_ladder(float(centered.coeffs[0]), ladder, n, lam))
        seconds.append(time.perf_counter() - start)
    del ladder
    if product:  # rows and target stay one-axis series
        axes = np.array([v.coeffs for v in densities + [target]])
        evaluate = partial(eval_axis_products, axes, shape[0])
        chunk = power_sum_chunk(*shape)
        distances = _distances(evaluate, len(ns), shape, chunk, config.distance, distance_seed)
    else:
        distances = l1_distances(densities, target, config.distance, seed=distance_seed)
    rows = [
        RateRow(n=n, l1=dist, bound=constant.c / math.sqrt(n), error=err, seconds=s)
        for n, s, (dist, err) in zip(ns, seconds, distances)
    ]
    table = RateTable(tuple(rows), *constant[:3], power_ladder, pair_footprint(algebra))
    bad = [row for row in rows if row.l1 > row.bound + row.error + NOISE_FLOOR]
    if bad:
        detail = "; ".join(
            f"n={row.n}: l1={row.l1:.6g} > bound={row.bound:.6g} + err={row.error:.6g}"
            for row in bad
        )
        raise BoundViolationError(f"rate bound violated: {detail}", table, bad, report)
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


def ks_against_density(values: np.ndarray, predicted: ChaosVector) -> ConvolutionReport:
    """KS statistic of scalar samples against a one-dimensional chaos density.

    The reference CDF is grid_cdf of the density, the one that sample draws
    from. Critical value at the 1% level.
    """
    grid, cdf = grid_cdf(predicted)
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
    a1, a2 = alphas
    if abs(a1 + a2 - 1.0) > 1e-12:
        raise ValueError("smoothing weights must sum to one")
    x1 = sample(f, samples, seed=child_seed(seed, 1))[:, 0]
    x2 = sample(g, samples, seed=child_seed(seed, 2))[:, 0]
    sums = math.sqrt(a1) * x1 + math.sqrt(a2) * x2
    predicted = wick_product(gamma(math.sqrt(a1), f), gamma(math.sqrt(a2), g))
    return ks_against_density(sums, predicted)
