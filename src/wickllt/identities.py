"""Machine-checkable identity suite for the chaos/Wick calculus.

Every identity the calculus relies on is duplicated here as a standalone
check with an explicit tolerance, runnable from the CLI. A mutation hook
(`inject_error`) corrupts one documented input per identity so the suite can
demonstrate that it actually detects violations. No check grants an
allowance for truncation: the S-transform factorization compares a capped
product with the degree-by-degree form of the identity, which the capped
product satisfies exactly.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .audit import CheckResult
from .basis import ChaosVector, GaussianSpace, monomial_powers
from .harness import empirical_convolution_check, ks_against_density, young_check
from .limit_density import gaussian_limit_series, self_similarity_defect
from .measures import sample
from .streams import STREAM_VALIDATE, substream
from .wick import gamma, stochastic_exponential, wick_power, wick_product

IDENTITY_NAMES = (
    "orthogonality",
    "functor",
    "exponential_group_law",
    "s_transform_factorization",
    "gamma_contraction",
    "self_similarity",
    "young",
    "empirical_convolution",
)


def _random_vector(space: GaussianSpace, rng, max_degree: int, scale: float = 0.3) -> ChaosVector:
    degcap = min(max_degree, space.max_degree)
    coeffs = np.where(
        space.degrees <= degcap, scale * rng.standard_normal(space.size), 0.0
    )
    return ChaosVector(space, coeffs)


def _check_orthogonality(space: GaussianSpace, rng, mutate: bool) -> CheckResult:
    # the basis vector of indices[p] is the unit vector at its rank pos[p], so the
    # Gram matrix, which must be diag(alpha!), holds w[p] = factorials[pos[p]] at
    # each (p, q) with pos[q] == pos[p]: the diagonal and the shared ranks give its max
    tol = 1e-10
    pos = space.positions(space.indices)
    w = space.factorials[pos]
    if mutate:
        w[-1] = -w[-1]  # deliberate sign corruption
    shared = np.bincount(pos)[pos] > 1
    worst = float(max(np.abs(w - space.factorials).max(), np.abs(w[shared]).max(initial=0.0)))
    return CheckResult(worst <= tol, worst, tol)


def _check_functor(space: GaussianSpace, rng, mutate: bool) -> CheckResult:
    tol = 1e-10
    worst = 0.0
    for lam in (0.0, 0.3, 1.0):
        f = _random_vector(space, rng, 4)
        g = _random_vector(space, rng, 4)
        left = gamma(lam, wick_product(f, g))
        lam_right = lam / 2.0 if mutate else lam
        right = wick_product(gamma(lam_right, f), gamma(lam, g))
        worst = max(worst, float(np.abs(left.coeffs - right.coeffs).max()))
    return CheckResult(worst <= tol, worst, tol)


def _check_group_law(space: GaussianSpace, rng, mutate: bool) -> CheckResult:
    tol = 1e-10
    worst = 0.0
    for _ in range(5):
        h = 0.6 * rng.standard_normal(space.dimension)
        ell = 0.6 * rng.standard_normal(space.dimension)
        prod = wick_product(
            stochastic_exponential(h, space), stochastic_exponential(ell, space)
        )
        target = stochastic_exponential(h - ell if mutate else h + ell, space)
        worst = max(worst, float(np.abs(prod.coeffs - target.coeffs).max()))
    return CheckResult(worst <= tol, worst, tol)


def _check_s_transform(space: GaussianSpace, rng, mutate: bool) -> CheckResult:
    # S(f <> g)(h) = S(f)(h) S(g)(h) degree by degree: with s_a(f) the degree-a
    # part of S(f)(h), a product capped at K keeps exactly the terms
    # s_a(f) s_b(g) with a + b <= K, so S(f <> g)(h) = sum_a s_a(f) sum_{b <= K-a} s_b(g).
    tol = 1e-10
    worst = 0.0
    h = np.full(space.dimension, 0.3)
    at_h = monomial_powers(space, h)
    at_g = monomial_powers(space, -h if mutate else h)

    def parts(f: ChaosVector, powers: np.ndarray) -> np.ndarray:
        return np.bincount(space.degrees, f.coeffs * powers, minlength=space.max_degree + 1)

    for _ in range(100):
        f = _random_vector(space, rng, 4)
        g = _random_vector(space, rng, 4)
        lhs = float(wick_product(f, g).coeffs @ at_h)  # s_transform(f <> g, h)
        rhs = float(parts(f, at_h) @ np.cumsum(parts(g, at_g))[::-1])
        worst = max(worst, abs(lhs - rhs))
    return CheckResult(worst <= tol, worst, tol)


def _check_gamma_contraction(space: GaussianSpace, rng, mutate: bool) -> CheckResult:
    tol = 1e-12
    worst = -math.inf
    for lam in (0.0, 0.25, 0.7, 1.0):
        f = _random_vector(space, rng, space.max_degree)
        lhs = gamma(lam, f).norm()
        rhs = f.norm()
        excess = (rhs - lhs) if mutate else (lhs - rhs)  # mutated: demand expansion
        worst = max(worst, excess)
    return CheckResult(worst <= tol, max(worst, 0.0), tol)


def _check_self_similarity(space: GaussianSpace, rng, mutate: bool) -> CheckResult:
    tol = 1e-10
    g = np.zeros((space.dimension, space.dimension))
    g[0, 0] = 0.2
    if space.dimension > 1:
        g[1, 1] = 0.1
    worst = 0.0
    for n in (2, 3, 5):
        if mutate:
            density = gaussian_limit_series(g, space)
            scaled = gamma(1.0 / float(n), density.series)  # wrong exponent
            powered = wick_power(scaled, n)
            worst = max(worst, float(np.abs(powered.coeffs - density.series.coeffs).max()))
        else:
            worst = max(worst, self_similarity_defect(g, n, space))
    return CheckResult(worst <= tol, worst, tol)


def _check_young(space: GaussianSpace, rng, mutate: bool) -> CheckResult:
    tol = 1e-12
    worst = -math.inf
    for _ in range(50):
        f = _random_vector(space, rng, 4)
        g = _random_vector(space, rng, 4)
        report = young_check([f, g], [0.5, 0.5])
        excess = (report.rhs - report.lhs) if mutate else (report.lhs - report.rhs)
        worst = max(worst, excess)
    return CheckResult(worst <= tol, max(worst, 0.0), tol)


def _check_empirical_convolution(
    space: GaussianSpace, rng, mutate: bool, ks_samples: int, seed: int
) -> CheckResult:
    line = GaussianSpace(1, max(space.max_degree, 8))
    coeffs = np.zeros(line.size)
    coeffs[0] = 1.0
    coeffs[line.position((2,))] = 0.1
    f = ChaosVector(line, coeffs)
    if mutate:
        # Drop the sqrt(1/2) scaling of the sum: X1 + X2 has twice the
        # variance of the equal-weight prediction, which the suite must flag.
        x1 = sample(f, ks_samples, seed=seed)[:, 0]
        x2 = sample(f, ks_samples, seed=seed + 1)[:, 0]
        half = gamma(math.sqrt(0.5), f)
        report = ks_against_density(x1 + x2, wick_product(half, half))
    else:
        report = empirical_convolution_check(f, f, (0.5, 0.5), samples=ks_samples, seed=seed)
    return CheckResult(report.passed, report.ks_statistic, report.critical_value)


def run_identity_suite(
    dimension: int = 2,
    max_degree: int = 8,
    seed: int = 0,
    inject_error: str | None = None,
    ks_samples: int = 20000,
) -> dict[str, CheckResult]:
    """Every identity check's verdict, keyed by IDENTITY_NAMES in that order;
    `inject_error` corrupts exactly one of them."""
    if inject_error is not None and inject_error not in IDENTITY_NAMES:
        raise ValueError(
            f"unknown identity {inject_error!r}; choose one of {IDENTITY_NAMES}"
        )
    space = GaussianSpace(dimension, max_degree)
    rng = substream(seed, STREAM_VALIDATE)
    checks = (
        _check_orthogonality,
        _check_functor,
        _check_group_law,
        _check_s_transform,
        _check_gamma_contraction,
        _check_self_similarity,
        _check_young,
        functools.partial(_check_empirical_convolution, ks_samples=ks_samples, seed=seed),
    )
    # the checks share rng, so they run in this order
    return {
        name: check(space, rng, inject_error == name)
        for name, check in zip(IDENTITY_NAMES, checks)
    }
