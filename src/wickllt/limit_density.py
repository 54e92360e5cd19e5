"""The Gaussian limit density of standardized sums and its diagnostics.

For a density with excess second-order kernel G (a symmetric PSD d x d
matrix), the standardized-sum dynamics converge to the density of
N(0, I + 2G) relative to N(0, I). That density has the even chaos expansion

    sum_k (degree-2 element of G)^{wick k} / k!

and a closed Gaussian form det(I+2G)^{-1/2} exp(-w^T ((I+2G)^{-1} - I) w / 2).
Square integrability needs the spectral radius of 2G strictly below one;
the stronger Frobenius condition |2G|_F < 1 is what the standing-assumption
audit checks, and it implies the spectral gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .audit import AssumptionViolationError
from .basis import ChaosVector, GaussianSpace, from_kernel_view
from .wick import gamma, wick_exp, wick_power

# Cramer's envelope |He_n(x)| <= C sqrt(n!) exp(x^2/4).
CRAMER_CONSTANT = 1.086435


@dataclass(frozen=True)
class LimitDensity:
    """Truncated chaos series of the limit density together with its kernel.

    The series carries mass only at even degrees, has unit constant term,
    and its degree-2 kernel equals g2. l2_tail_sq is the exact squared L2
    mass of the dropped terms (full norm from the eigenvalue product minus
    the truncated norm).
    """

    g2: np.ndarray
    series: ChaosVector
    eigenvalues: np.ndarray
    l2_tail_sq: float

    def __post_init__(self) -> None:
        for name in ("g2", "eigenvalues"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def to_json_dict(self) -> dict:
        return {
            "g2": self.g2,
            "series": {
                "dimension": self.series.space.dimension,
                "max_degree": self.series.space.max_degree,
                "coeffs": self.series.coeffs,
            },
        }


def _validated_kernel(g2, space: GaussianSpace | None = None) -> tuple[np.ndarray, np.ndarray]:
    g = np.atleast_2d(np.asarray(g2, dtype=float))
    if g.shape[0] != g.shape[1]:
        raise ValueError("excess kernel must be a square matrix")
    if space is not None and g.shape[0] != space.dimension:
        raise ValueError(
            f"kernel is {g.shape[0]}x{g.shape[0]}, space dimension is {space.dimension}"
        )
    if not np.array_equal(g, g.T):
        raise ValueError("excess kernel must be exactly symmetric")
    eig = np.linalg.eigvalsh(g)
    if eig.min() < -1e-10:
        raise AssumptionViolationError(
            "assumption violation (variance domination): excess kernel is not "
            f"positive semidefinite (min eigenvalue {eig.min():.3e})"
        )
    if 2.0 * float(np.abs(eig).max()) >= 1.0:
        raise AssumptionViolationError(
            "assumption violation (square-integrable limit): spectral radius of "
            f"the doubled excess kernel is {2 * np.abs(eig).max():.6f} >= 1"
        )
    return g, np.clip(eig, 0.0, None)


def gaussian_limit_series(g2, space: GaussianSpace) -> LimitDensity:
    """Build the truncated limit-density series as the Wick exponential of G.

    Each term (degree-2 of G)^{wick k}/k! sits exactly at degree 2k, so the
    truncation at max_degree keeps partial sums exact and the dropped mass is
    the analytic tail of the norm series.
    """
    g, eig = _validated_kernel(g2, space)
    base = from_kernel_view(space, np.zeros(space.dimension), g, constant=0.0)
    series = wick_exp(base)
    full_norm_sq = float(np.prod(1.0 / np.sqrt(1.0 - 4.0 * eig**2)))
    tail = max(full_norm_sq - series.norm_sq(), 0.0)
    return LimitDensity(g2=g, series=series, eigenvalues=eig, l2_tail_sq=tail)


def gaussian_limit_closed_form(g2, w) -> float | np.ndarray:
    """Density of N(0, I+2G) against N(0, I) evaluated in closed form.

    Accepts a single point (length-d) or an array of points (n, d).
    """
    g = np.atleast_2d(np.asarray(g2, dtype=float))
    d = g.shape[0]
    cov = np.eye(d) + 2.0 * g
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0:
        raise ValueError("covariance I + 2G is singular or not positive")
    quad_mat = np.linalg.inv(cov) - np.eye(d)
    pts = np.asarray(w, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.shape[1] != d:
        raise ValueError(f"points have dimension {pts.shape[1]}, expected {d}")
    quad = np.einsum("ni,ij,nj->n", pts, quad_mat, pts)
    vals = np.exp(-0.5 * logdet - 0.5 * quad)
    return float(vals[0]) if single else vals


def limit_char_functional(g2, h) -> float:
    """exp(-h^T G h - |h|^2 / 2), the characteristic functional of the limit law."""
    g = np.atleast_2d(np.asarray(g2, dtype=float))
    h = np.asarray(h, dtype=float).reshape(-1)
    if h.shape[0] != g.shape[0]:
        raise ValueError("argument dimension does not match the kernel")
    return float(math.exp(-float(h @ g @ h) - 0.5 * float(h @ h)))


class L2Norms(NamedTuple):
    series_value: float
    determinant_value: float
    # (1 - 4 |G|_F^2)^{-1/2}; None when |G|_F^2 >= 1/4 makes it undefined.
    scalar_frobenius_value: float | None


def limit_l2_norms(density: LimitDensity) -> L2Norms:
    """Three readings of the squared L2 norm of a built limit density.

    (i) the truncated series sum, (ii) the exact eigenvalue product
    prod (1 - 4 lambda_i^2)^{-1/2}, (iii) the one-number Frobenius form
    (1 - 4 |G|_F^2)^{-1/2}. Always (i) ~= (ii) within the truncation tail
    and (ii) <= (iii); equality in the latter holds exactly for rank-one G.
    """
    eig = density.eigenvalues
    det_value = float(np.prod(1.0 / np.sqrt(1.0 - 4.0 * eig**2)))
    frob_sq = float(np.sum(density.g2 * density.g2))
    scalar = None
    if 4.0 * frob_sq < 1.0:
        scalar = float(1.0 / math.sqrt(1.0 - 4.0 * frob_sq))
    return L2Norms(density.series.norm_sq(), det_value, scalar)


def self_similarity_defect(g2, n: int, space: GaussianSpace) -> float:
    """Max coefficient deviation of the n-fold rescaled Wick power from the series.

    The fixed-point identity makes (gamma(1/sqrt(n)) series)^{wick n} equal
    to the series degree by degree, exactly, under capping; the returned
    defect is therefore pure floating-point noise.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    density = gaussian_limit_series(g2, space)
    scaled = gamma(1.0 / math.sqrt(n), density.series)
    powered = wick_power(scaled, n)
    return float(np.abs(powered.coeffs - density.series.coeffs).max())


def pointwise_tail_bound(g2, w, truncation_degree: int) -> float:
    """Geometric envelope for the series truncation error at a point.

    Combines Cramer's Hermite bound per coordinate with Cauchy-Schwarz over
    each dropped degree: the k-th term is bounded in L2 by (2 |G|_F)^k, and
    pointwise by an extra sqrt(#indices at degree 2k) * C^d exp(|w|^2/4).
    Valid (finite) whenever 2 |G|_F < 1; dominates the actual residual.
    """
    g = np.atleast_2d(np.asarray(g2, dtype=float))
    d = g.shape[0]
    w = np.asarray(w, dtype=float).reshape(-1)
    if w.shape[0] != d:
        raise ValueError("point dimension does not match the kernel")
    ratio = 2.0 * float(np.sqrt(np.sum(g * g)))
    m = truncation_degree // 2
    if ratio >= 1.0:
        return math.inf
    total = 0.0
    k = m + 1
    while True:
        term = math.sqrt(math.comb(2 * k + d - 1, d - 1)) * ratio**k
        total += term
        k += 1
        if term < 1e-22 * max(total, 1e-300) or k > m + 2000:
            break
    envelope = CRAMER_CONSTANT**d * math.exp(float(w @ w) / 4.0)
    return envelope * total
