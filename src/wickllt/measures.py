"""Constructors for test densities, and a sampler for one-dimensional ones.

The family covered is the finite mixture of shifted Gaussians, the
convolution of the reference measure with a finitely supported measure on
the shift space. rank_one_closed_form is the closed expression of the limit
density for a rank-one excess kernel G = g g^T (gaussian_limit_series of
np.outer(g, g)), an independent oracle for that series.

A one-dimensional density has one grid CDF, grid_cdf, which the KS check of
the identity suite compares against; sample draws from the same CDF by
inversion of uniforms from the seed's sampler stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import ChaosVector, GaussianSpace, eval_many, monomial_sums
from .streams import STREAM_SAMPLER, substream


class DensityValidationError(Exception):
    """A density with no positive mass on the grid of grid_cdf."""


@dataclass(frozen=True)
class WeightedShifts:
    """Finitely supported probability measure on the shift space.

    weights: probabilities (sum to one); shifts: one d-vector per atom.
    """

    weights: np.ndarray
    shifts: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        s = np.atleast_2d(np.asarray(self.shifts, dtype=float))
        if w.ndim != 1 or w.shape[0] != s.shape[0]:
            raise ValueError("need one weight per shift")
        if not (np.isfinite(w).all() and np.isfinite(s).all()):
            raise ValueError("weights and shifts must be finite")
        if w.min() < 0.0:
            raise ValueError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {float(w.sum())!r}, expected 1")
        w.setflags(write=False)
        s.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "shifts", s)

    @property
    def dimension(self) -> int:
        return self.shifts.shape[1]

    @property
    def count(self) -> int:
        return self.shifts.shape[0]

    def exponential_integrability(self) -> float:
        """sum_j p_j exp(|h_j|^2 / 2); finite for any finite atom list."""
        sq = np.sum(self.shifts * self.shifts, axis=1)
        return float(np.dot(self.weights, np.exp(0.5 * sq)))

    def shift_variance_total(self) -> float:
        """sum_i Var<Y, e_i> of the atomic measure; < 1 is the easy
        sufficient condition for the excess-size hypothesis."""
        mean = self.weights @ self.shifts
        second = float(np.dot(self.weights, np.sum(self.shifts**2, axis=1)))
        return second - float(mean @ mean)

    def to_f64_bytes(self) -> bytes:
        """Raw little-endian float64, one row (weight, shift) per atom, row-major."""
        return np.column_stack([self.weights, self.shifts]).astype("<f8").tobytes()


def shift_mixture(nu: WeightedShifts, space: GaussianSpace) -> ChaosVector:
    """Density of the reference measure convolved with the atomic measure nu.

    Coefficientwise this is sum_j p_j h_j^alpha / alpha!, a convex
    combination of shifted-Gaussian densities; strictly positive with unit
    mass. The sums over atoms are monomial_sums, which factors every
    monomial into a head and a tail part. The result is divided by its
    constant coefficient (= the accumulated weight total, one up to
    summation roundoff) so the mass invariant holds exactly.
    """
    if nu.dimension != space.dimension:
        raise ValueError(
            f"shifts have dimension {nu.dimension}, space has {space.dimension}"
        )
    acc = monomial_sums(space, nu.shifts, nu.weights)
    acc /= acc[0]
    return ChaosVector(space, acc / space.factorials)


def rank_one_closed_form(g, w) -> float | np.ndarray:
    """(1 + 2|g|^2)^{-1/2} exp(<w, g>^2 / (1 + 2|g|^2)), the closed expression
    for the limit density of the rank-one excess kernel G = g g^T."""
    g = np.asarray(g, dtype=float).reshape(-1)
    sq = float(g @ g)
    pts = np.asarray(w, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    proj = pts @ g
    vals = np.exp(proj * proj / (1.0 + 2.0 * sq)) / math.sqrt(1.0 + 2.0 * sq)
    return float(vals[0]) if single else vals


def grid_cdf(f: ChaosVector) -> tuple[np.ndarray, np.ndarray]:
    """(grid, cdf): the CDF of the one-dimensional measure f dmu on 8,001
    points of [-10, 10], beyond which the Gaussian weight is below 1e-22.

    A trapezoid integral of f against the Gaussian weight, with f clipped at
    zero where truncation dips negative, normalized to end at one.
    """
    if f.space.dimension != 1:
        raise ValueError(f"a grid CDF needs a one-dimensional density, not {f.space.dimension}")
    grid = np.linspace(-10.0, 10.0, 8001)
    weight = np.exp(-grid**2 / 2.0) / np.sqrt(2 * np.pi)
    dens = np.clip(eval_many(f, grid[:, None]), 0.0, None) * weight
    cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) * 0.5 * np.diff(grid))])
    if not cdf[-1] > 0.0:
        raise DensityValidationError("density has no positive mass on the CDF grid [-10, 10]")
    cdf /= cdf[-1]
    return grid, cdf


# uniforms inverted per call of np.interp, about 100 KB of transients
_SAMPLE_BLOCK = 4096


def sample(f: ChaosVector, count: int, seed: int = 0) -> np.ndarray:
    """count draws from the one-dimensional measure f dmu, shape (count, 1).

    Inverts grid_cdf at uniforms from the sampler stream of seed (Devroye,
    Non-Uniform Random Variate Generation, 1986, ch. 2), so the draws follow
    exactly the CDF that ks_against_density tests against. The uniforms go
    through np.interp _SAMPLE_BLOCK at a time, sorted, which keeps its
    searches short, and the draws are scattered back in place of their
    uniforms: interp works element by element, so they are the bits of one
    np.interp over the unsorted uniforms.
    """
    grid, cdf = grid_cdf(f)
    draws = substream(seed, STREAM_SAMPLER).random(count)
    for start in range(0, count, _SAMPLE_BLOCK):
        block = draws[start : start + _SAMPLE_BLOCK]
        order = np.argsort(block)
        block[order] = np.interp(block[order], cdf, grid)
    return draws[:, None]
