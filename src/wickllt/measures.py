"""Constructors for test densities and a rejection sampler.

Families covered:
  * finite mixtures of shifted Gaussians, the convolution of the reference
    measure with a finitely supported measure on the shift space;
  * the Gaussian limit density itself for a given excess kernel (fixed
    point of the standardized-sum dynamics);
  * the rank-one quadratic exponential, which admits an independent closed
    form for cross-checking.

Sampling is by rejection against the standard Gaussian with a grid-based
envelope; Philox sub-streams keyed by batch index make the output a function
of the seed alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import ChaosVector, GaussianSpace, eval_many, monomial_sums
from .limit_density import gaussian_limit_series
from .quadrature import tensor_grid
from .streams import STREAM_SAMPLER, substream


class DensityValidationError(Exception):
    """A density that sample cannot draw from: nonpositive on its envelope grid."""


class EnvelopeBreachError(Exception):
    """Rejection sampling hit a density value above its envelope."""


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

    @staticmethod
    def from_json_dict(data: dict) -> "WeightedShifts":
        return WeightedShifts(
            np.asarray(data["weights"], dtype=float),
            np.asarray(data["shifts"], dtype=float),
        )


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


def gaussian_cov(g2, space: GaussianSpace) -> ChaosVector:
    """The limit density itself as a test density (fixed point of the sweep)."""
    return gaussian_limit_series(g2, space).series


def rank_one_quadratic(g, space: GaussianSpace) -> ChaosVector:
    """Series density for the rank-one excess kernel G = g g^T.

    Defined while 2 |g|^2 < 1; pointwise it agrees with rank_one_closed_form
    up to the truncation tail.
    """
    g = np.asarray(g, dtype=float).reshape(-1)
    if g.shape != (space.dimension,):
        raise ValueError(f"direction must have length {space.dimension}")
    sq = float(g @ g)
    if 2.0 * sq >= 1.0:
        raise ValueError(
            f"rank-one quadratic exponential requires 2|g|^2 < 1, got {2 * sq:.6f}"
        )
    return gaussian_limit_series(np.outer(g, g), space).series


def rank_one_closed_form(g, w) -> float | np.ndarray:
    """(1 + 2|g|^2)^{-1/2} exp(<w, g>^2 / (1 + 2|g|^2)), the closed expression
    for the rank-one quadratic exponential."""
    g = np.asarray(g, dtype=float).reshape(-1)
    sq = float(g @ g)
    pts = np.asarray(w, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    proj = pts @ g
    vals = np.exp(proj * proj / (1.0 + 2.0 * sq)) / math.sqrt(1.0 + 2.0 * sq)
    return float(vals[0]) if single else vals


def _envelope_halfwidth(count: int, max_degree: int) -> float:
    # Wide enough that a standard normal sample of this size stays inside
    # with overwhelming probability, padded for polynomial growth.
    return math.sqrt(2.0 * math.log(10.0 * max(count, 2))) + 1.0 + 0.25 * math.sqrt(max_degree)


_ENVELOPE_AXIS_POINTS = {1: 4097, 2: 193, 3: 41, 4: 21}
# Headroom of the envelope over the grid maximum, for peaks between grid points.
ENVELOPE_FACTOR = 1.05
# Proposals per batch; batch i draws from sampler sub-stream i.
SAMPLE_BATCH = 8192


def sample(f: ChaosVector, count: int, seed: int = 0, halfwidth: float | None = None) -> np.ndarray:
    """Draw from the measure f dmu by rejection against the reference Gaussian.

    The envelope is ENVELOPE_FACTOR times the maximum of f on a dense tensor
    grid whose halfwidth covers the plausible sample range for this count and
    degree. A proposal that evaluates above the envelope aborts the run with
    a diagnostic instead of silently clipping.
    """
    d = f.space.dimension
    if d > 4:
        raise ValueError("rejection sampling is limited to dimension <= 4")
    if count < 1:
        raise ValueError("need a positive sample count")
    hw = halfwidth if halfwidth is not None else _envelope_halfwidth(count, f.space.max_degree)
    grid = tensor_grid(d, _ENVELOPE_AXIS_POINTS[d], hw)
    envelope = ENVELOPE_FACTOR * float(eval_many(f, grid).max())
    if envelope <= 0.0:
        raise DensityValidationError("density is nonpositive on the envelope grid")
    out = np.empty((count, d))
    got = 0
    batch_index = 0
    max_batches = 2000 + 200 * count // SAMPLE_BATCH
    while got < count:
        if batch_index > max_batches:
            raise EnvelopeBreachError(
                "rejection sampling stalled; acceptance rate too low for envelope "
                f"{envelope:.6g}"
            )
        rng = substream(seed, STREAM_SAMPLER, batch_index)
        batch_index += 1
        pts = rng.standard_normal((SAMPLE_BATCH, d))
        vals = eval_many(f, pts)
        breach = vals > envelope
        if np.any(breach):
            k = int(np.argmax(breach))
            raise EnvelopeBreachError(
                f"envelope too small: density value {vals[k]:.6g} at point "
                f"{pts[k].tolist()} exceeds envelope {envelope:.6g}; enlarge the "
                "grid halfwidth or ENVELOPE_FACTOR"
            )
        accept = rng.random(SAMPLE_BATCH) * envelope <= np.clip(vals, 0.0, None)
        taken = pts[accept]
        take = min(taken.shape[0], count - got)
        out[got : got + take] = taken[:take]
        got += take
    return out
