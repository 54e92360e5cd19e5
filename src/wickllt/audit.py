"""Numeric audits of the standing hypotheses behind the limit theorem.

Three checks gate every experiment. audit_density runs them in one pass,
reading the kernel M and its eigenvalues once, and reports each with the
measured quantity and an explicit tolerance:

  * square-integrability / normalization: the candidate is a unit-mass L2
    density, and its truncated representative stays nonnegative on a screen
    grid (truncation may dip slightly negative, hence a relative floor);
  * variance domination: M = 2 f2 - f1 f1^T is positive semidefinite, i.e.
    Var<X, h> >= |h|^2 for every direction (the trace of M is reported for
    the record; it is trivially finite here);
  * excess-size: |M|_F^2 < 1, the quantitative condition that makes the
    limit density square integrable. The spectral radius of M (= 2G) is
    reported alongside as the exact admissibility quantity.

The variance identity Var<X, h> = h^T M h + |h|^2 is checkable against a
quadrature oracle in low dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .basis import ChaosVector, eval_axis_products, eval_many, kernel_view
from .quadrature import MAX_QUADRATURE_DIM, tensor_grid, tensor_rule
from .streams import STREAM_AUDIT, substream

if TYPE_CHECKING:  # config imports this module through limit_density
    from .config import Density

# The nonnegativity screen passes a grid minimum down to -NEGATIVITY_FACTOR
# times the L2 norm: truncated representatives may dip slightly below zero.
NEGATIVITY_FACTOR = 1e-6
SCREEN_AXIS_POINTS = 41
SCREEN_HALFWIDTH = 3.5
SCREEN_MC_POINTS = 4096
SCREEN_SEED = 2024


class AssumptionViolationError(Exception):
    """A checked verdict fails: a standing hypothesis of the audit, the sde
    drift-energy gate, or an identity of the validation suite."""


class CheckResult(NamedTuple):
    """The one verdict type: whether a check held, the value it measured and
    the threshold it compared that value with."""

    passed: bool
    measured: float
    threshold: float


def verdicts_json(verdicts: dict[str, CheckResult]) -> dict:
    """Verdicts in their artifact form, {name: {passed, measured, threshold}}."""
    return {name: v._asdict() for name, v in verdicts.items()}


def screen_grid(dimension: int) -> np.ndarray:
    """The nonnegativity screen: SCREEN_AXIS_POINTS per axis on
    [-SCREEN_HALFWIDTH, SCREEN_HALFWIDTH] up to dimension 3; above, the
    origin and SCREEN_MC_POINTS Gaussian draws of seed SCREEN_SEED."""
    if dimension <= 3:
        return tensor_grid(dimension, SCREEN_AXIS_POINTS, SCREEN_HALFWIDTH)
    pts = substream(SCREEN_SEED, STREAM_AUDIT).standard_normal((SCREEN_MC_POINTS, dimension))
    return np.vstack([np.zeros((1, dimension)), pts])


@dataclass
class AssumptionReport:
    """Measured quantities and verdicts for all standing hypotheses."""

    l2_norm: float | None = None
    normalization: float | None = None
    min_on_grid: float | None = None
    min_eigenvalue_m: float | None = None
    trace_m: float | None = None
    frobenius_sq_m: float | None = None
    spectral_radius_2g: float | None = None
    verdicts: dict[str, CheckResult] = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts.values())

    def to_json_dict(self) -> dict:
        data = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "verdicts"}
        return {**data, "all_passed": self.all_passed, "verdicts": verdicts_json(self.verdicts)}


class VariancePairing(NamedTuple):
    formula_value: float
    quadrature_value: float | None


def variance_pairing(f: ChaosVector, h) -> VariancePairing:
    """Var<X, h> two ways: the kernel formula h^T M h + |h|^2 and quadrature.

    The quadrature side integrates <w,h>^2 f and <w,h> f exactly (the
    integrands are polynomials of degree max_degree + 2). Above
    MAX_QUADRATURE_DIM only the formula value is returned.
    """
    h = np.asarray(h, dtype=float).reshape(-1)
    space = f.space
    if h.shape != (space.dimension,):
        raise ValueError(f"direction must have length {space.dimension}")
    view = kernel_view(f)
    m = 2.0 * view.g2
    formula = float(h @ m @ h + h @ h)
    if space.dimension > MAX_QUADRATURE_DIM:
        return VariancePairing(formula, None)
    nodes = (space.max_degree + 3) // 2 + 1
    pts, wts = tensor_rule(space.dimension, max(nodes, 8))
    fvals = eval_many(f, pts)
    proj = pts @ h
    second = float(np.dot(wts, proj * proj * fvals))
    first = float(np.dot(wts, proj * fvals))
    return VariancePairing(formula, second - first * first)


def audit_density(density: Density | ChaosVector) -> AssumptionReport:
    """Run all standing-hypothesis checks in one report.

    A bare ChaosVector counts as kind coefficients. The two second-order
    checks share one M and one eigendecomposition, whose spectral radius
    always satisfies rho(2G) <= |M|_F. A space of max_degree below 2 has no
    kernel and gets the first check only. A product_hermite density is read
    from its axis series a (a_0 = 1, as resolve_density requires), with M =
    (2 a_2 - a_1^2) I.
    """
    f = getattr(density, "vector", density)
    product = getattr(density, "kind", None) == "product_hermite"
    report = AssumptionReport()
    if product:
        d, a = density.structure, f.coeffs
        values = eval_axis_products(a[None], d, screen_grid(d))
        report.l2_norm = math.sqrt(density.degree_norms_sq().sum())
        report.normalization = float(a[0] ** d)
    else:
        values = eval_many(f, screen_grid(f.space.dimension))
        report.l2_norm, report.normalization = f.norm(), float(f.coeffs[0])
    report.min_on_grid = float(values.min())
    report.verdicts["normalization"] = CheckResult(
        abs(report.normalization - 1.0) <= 1e-12, report.normalization, 1e-12
    )
    floor = -NEGATIVITY_FACTOR * report.l2_norm
    report.verdicts["nonnegativity"] = CheckResult(
        report.min_on_grid >= floor, report.min_on_grid, floor
    )
    if f.space.max_degree < 2:
        return report
    if product:
        m = 2.0 * a[2] - a[1] * a[1]
        eig, trace, frobenius_sq = np.array([m]), d * m, d * m * m
    else:
        m = 2.0 * kernel_view(f).g2
        eig, trace, frobenius_sq = np.linalg.eigvalsh(m), np.trace(m), np.sum(m * m)
    report.min_eigenvalue_m = float(eig.min())
    report.trace_m = float(trace)
    report.frobenius_sq_m = float(frobenius_sq)
    report.spectral_radius_2g = float(np.abs(eig).max())
    report.verdicts["variance_domination"] = CheckResult(
        report.min_eigenvalue_m >= -1e-10, report.min_eigenvalue_m, -1e-10
    )
    report.verdicts["excess_frobenius"] = CheckResult(
        report.frobenius_sq_m < 1.0, report.frobenius_sq_m, 1.0
    )
    return report


def require_passed(verdicts: dict[str, CheckResult], what: str = "assumption audit") -> None:
    """Raise AssumptionViolationError naming each failed verdict with its
    measured value and threshold: the one way a failed check stops a run."""
    failed = [
        f"{name} (measured {v.measured!r}, threshold {v.threshold:.6g})"
        for name, v in verdicts.items()
        if not v.passed
    ]
    if failed:
        raise AssumptionViolationError(f"{what} failed: " + "; ".join(failed))
