"""Discretized path-space example: drift-translated Brownian motion.

The first component of the coupled system

    dX_t = b1(Y_t) dt + dB1_t,    dY_t = b2(X_t) dt + dB2_t

is, under the original measure, a Brownian motion translated by the
independent drift path Y_t = -int_0^t b1(B2_s) ds. Its law is therefore the
reference measure convolved with the law of Y, which lives on the shift
space. We model paths on a uniform grid of `steps` intervals where
coordinate i of the Gaussian space is the normalized increment
(w(t_i) - w(t_{i-1})) / sqrt(dt), so i.i.d. standard Gaussians reproduce
the discrete Wiener measure, and the shift vector of a simulated drift path
has component i equal to -sqrt(dt) * b1(B2_{t_{i-1}}) (left-point rule).

Two Monte-Carlo estimates gate the construction: the exponential moment
E[exp(int b1(B2)^2 dt / 2)] (finite by bounded drift here; overflow is an
error, not a number) and the mean-square drift int_0^1 E[b1(B2_t)^2] dt,
which must sit strictly below one for the excess-size hypothesis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .basis import ChaosVector, GaussianSpace
from .measures import WeightedShifts, shift_mixture
from .streams import STREAM_PATHS, substream

# Paths are simulated in blocks, one Philox sub-stream per block, so the
# sample set for a seed is identical at any chunking.
PATH_BLOCK = 1024

EXP_OVERFLOW = 700.0


class SdeNumericError(Exception):
    """Numerical failure inside the path-space pipeline."""


@dataclass(frozen=True)
class PathGrid:
    """Uniform time grid on [0, 1] with `steps` increments."""

    steps: int

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ValueError("need at least one time step")

    @property
    def dt(self) -> float:
        return 1.0 / self.steps


@dataclass(frozen=True)
class DriftSpec:
    """Drift of the first equation; kappa is an optional scale echoed in reports."""

    b1: Callable[[np.ndarray], np.ndarray]
    kappa: float | None = None
    label: str = ""


def _drift_values(spec: DriftSpec, x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values raise below
        vals = np.asarray(spec.b1(x), dtype=float)
    if vals.shape != x.shape:
        vals = np.broadcast_to(vals, x.shape).astype(float)
    finite_per_path = np.isfinite(vals).all(axis=-1)
    if not finite_per_path.all():
        bad = int(np.nonzero(~finite_per_path)[0][0])
        raise SdeNumericError(f"drift evaluation returned a non-finite value on path {bad}")
    return vals


def _drift_at_left_points(
    spec: DriftSpec, grid: PathGrid, paths: int, seed: int
) -> np.ndarray:
    """b1 evaluated at the left grid points of `paths` independent paths.

    Row j holds b1(B2_{t_0, j}), ..., b1(B2_{t_{d-1}, j}) with B2_{t_0} = 0.
    """
    if paths < 1:
        raise ValueError("need at least one path")
    d = grid.steps
    sqdt = math.sqrt(grid.dt)
    out = np.empty((paths, d))
    for start in range(0, paths, PATH_BLOCK):
        stop = min(start + PATH_BLOCK, paths)
        rng = substream(seed, STREAM_PATHS, start // PATH_BLOCK)
        increments = sqdt * rng.standard_normal((stop - start, d))
        left = np.concatenate(
            [np.zeros((stop - start, 1)), np.cumsum(increments, axis=1)[:, :-1]], axis=1
        )
        out[start:stop] = _drift_values(spec, left)
    return out


def simulate_drift_shifts(
    spec: DriftSpec, grid: PathGrid, paths: int, seed: int = 0
) -> WeightedShifts:
    """Simulate the drift measure: one shift vector per Brownian path.

    Path j contributes h_j[i] = -sqrt(dt) * b1(B2_{t_{i-1}, j}) with uniform
    weight 1/paths; B2 is an independent Brownian motion evaluated at the
    left endpoints (B2_{t_0} = 0).
    """
    vals = _drift_at_left_points(spec, grid, paths, seed)
    shifts = -math.sqrt(grid.dt) * vals
    weights = np.full(paths, 1.0 / paths)
    return WeightedShifts(weights, shifts)


class MomentEstimate(NamedTuple):
    estimate: float
    standard_error: float


def novikov_estimate(
    spec: DriftSpec,
    grid: PathGrid,
    paths: int,
    seed: int = 0,
    ceiling: float = 1e15,
) -> MomentEstimate:
    """Monte-Carlo exponential moment E[exp(sum_i dt b1(B2_{t_{i-1}})^2 / 2)].

    Uses the same path draws as simulate_drift_shifts for the same seed (the
    exponent of path j is |h_j|^2 / 2) but accumulates dt * b1^2 directly so
    a constant drift gives the closed value without rounding from sqrt(dt).
    Exponent overflow or exceeding the ceiling is an error.
    """
    vals = _drift_at_left_points(spec, grid, paths, seed)
    exponents = 0.5 * grid.dt * np.sum(vals * vals, axis=1)
    return _exponential_moment(np.full(paths, 1.0 / paths), exponents, ceiling)


def novikov_from_shifts(nu: WeightedShifts, ceiling: float = 1e15) -> MomentEstimate:
    """Exponential moment of an already-simulated drift measure."""
    with np.errstate(over="ignore"):  # an infinite exponent is raised below
        exponents = 0.5 * np.sum(nu.shifts**2, axis=1)
    return _exponential_moment(np.asarray(nu.weights), exponents, ceiling)


def _exponential_moment(weights: np.ndarray, exponents: np.ndarray, ceiling: float) -> MomentEstimate:
    if exponents.max() > EXP_OVERFLOW:
        raise SdeNumericError(
            f"Novikov check failed (numeric): exponent {exponents.max():.3g} overflows"
        )
    vals = np.exp(exponents)
    if np.all(vals == vals[0]):
        # deterministic integrand: the mean is the common value, exactly
        est, se = float(vals[0]), 0.0
    else:
        est = float(np.dot(weights, vals))
        se = float(vals.std(ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else 0.0
    if est > ceiling:
        raise SdeNumericError(
            f"Novikov check failed (numeric): estimate {est:.3g} above ceiling {ceiling:.3g}"
        )
    return MomentEstimate(est, se)


class DriftEnergy(NamedTuple):
    estimate: float
    standard_error: float
    passed: bool


def mean_square_drift_estimate(
    spec: DriftSpec, grid: PathGrid, paths: int, seed: int = 0
) -> DriftEnergy:
    """Monte-Carlo estimate of int_0^1 E[b1(B2_t)^2] dt with a strict <1 gate.

    Equals E|h|^2 over the simulated shift vectors (same paths for the same
    seed), accumulated as dt * sum b1^2 so a constant drift is exact.
    Passing requires estimate + 3 * standard_error < 1 so the verdict is
    robust to the Monte-Carlo noise.
    """
    vals = _drift_at_left_points(spec, grid, paths, seed)
    energies = grid.dt * np.sum(vals * vals, axis=1)
    if np.all(energies == energies[0]):
        est, se = float(energies[0]), 0.0
    else:
        est = float(energies.mean())
        se = float(energies.std(ddof=1) / math.sqrt(energies.size)) if energies.size > 1 else 0.0
    return DriftEnergy(est, se, est + 3.0 * se < 1.0)


def sde_density(
    spec: DriftSpec,
    grid: PathGrid,
    paths: int,
    space: GaussianSpace,
    seed: int = 0,
) -> ChaosVector:
    """Empirical convolution density over the simulated drift measure."""
    if space.dimension != grid.steps:
        raise ValueError(
            f"space dimension {space.dimension} must equal the grid steps {grid.steps}"
        )
    shifts = simulate_drift_shifts(spec, grid, paths, seed)
    return shift_mixture(shifts, space)


DRIFT_REGISTRY: dict[str, Callable[..., DriftSpec]] = {
    "zero": lambda: DriftSpec(lambda x: np.zeros_like(x), label="zero"),
    "constant": lambda value: DriftSpec(
        lambda x, _v=float(value): np.full_like(x, _v), kappa=float(value), label="constant"
    ),
    "scaled_sin": lambda scale: DriftSpec(
        lambda x, _s=float(scale): _s * np.sin(x), kappa=float(scale), label="scaled_sin"
    ),
    "linear": lambda slope: DriftSpec(
        lambda x, _s=float(slope): _s * x, kappa=float(slope), label="linear"
    ),
}


def drift_from_config(data: dict) -> DriftSpec:
    """Build a drift from {'kind': ..., optional parameter} config data."""
    kind = data.get("kind")
    if kind == "zero":
        return DRIFT_REGISTRY["zero"]()
    if kind == "constant":
        return DRIFT_REGISTRY["constant"](data["value"])
    if kind == "scaled_sin":
        return DRIFT_REGISTRY["scaled_sin"](data["scale"])
    if kind == "linear":
        return DRIFT_REGISTRY["linear"](data["slope"])
    raise ValueError(f"unknown drift kind {kind!r}")
