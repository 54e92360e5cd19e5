"""Discretized path-space example: drift-translated Brownian motion.

The first component of the coupled system

    dX_t = b1(Y_t) dt + dB1_t,    dY_t = b2(X_t) dt + dB2_t

is, under the original measure, a Brownian motion translated by the
independent drift path Y_t = -int_0^t b1(B2_s) ds. Its law is therefore the
reference measure convolved with the law of Y, which lives on the shift
space. We model paths on a uniform grid of `steps` intervals, dt = 1 / steps,
where coordinate i of the Gaussian space is the normalized increment
(w(t_i) - w(t_{i-1})) / sqrt(dt), so i.i.d. standard Gaussians reproduce
the discrete Wiener measure, and the shift vector of a simulated drift path
has component i equal to -sqrt(dt) * b1(B2_{t_{i-1}}) (left-point rule).

The shift_mixture of the simulated shifts is the law's density on the
Gaussian space, whose rate the sde command sweeps. Two Monte-Carlo gates are
read off the same draw of paths: the exponential moment E[exp(|h|^2 / 2)]
(finite by bounded drift here; overflow or a value above NOVIKOV_CEILING is
an error, not a number) and the mean-square drift int_0^1 E[b1(B2_t)^2] dt,
which must sit strictly below one for the excess-size hypothesis; its
drift_energy verdict joins the density's audit.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .audit import CheckResult
from .measures import WeightedShifts
from .streams import STREAM_PATHS, substream

# Paths are simulated in blocks, one Philox sub-stream per block, so the
# sample set for a seed is identical at any chunking.
PATH_BLOCK = 1024

EXP_OVERFLOW = 700.0
# An exponential-moment estimate above this is reported as a numeric failure.
NOVIKOV_CEILING = 1e15


class SdeNumericError(Exception):
    """Numerical failure inside the path-space pipeline."""


# b1 of the first equation, applied elementwise to an array of positions
Drift = Callable[[np.ndarray], np.ndarray]


def _drift_values(b1: Drift, x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values raise below
        vals = np.asarray(b1(x), dtype=float)
    if vals.shape != x.shape:
        vals = np.broadcast_to(vals, x.shape).astype(float)
    finite_per_path = np.isfinite(vals).all(axis=-1)
    if not finite_per_path.all():
        bad = int(np.nonzero(~finite_per_path)[0][0])
        raise SdeNumericError(f"drift evaluation returned a non-finite value on path {bad}")
    return vals


def _drift_at_left_points(b1: Drift, steps: int, paths: int, seed: int) -> np.ndarray:
    """b1 evaluated at the left grid points of `paths` independent paths on
    the uniform grid of [0, 1] with `steps` increments.

    Row j holds b1(B2_{t_0, j}), ..., b1(B2_{t_{steps-1}, j}) with B2_{t_0} = 0.
    """
    if steps < 1:
        raise ValueError("need at least one time step")
    if paths < 1:
        raise ValueError("need at least one path")
    sqdt = math.sqrt(1.0 / steps)
    out = np.empty((paths, steps))
    for start in range(0, paths, PATH_BLOCK):
        stop = min(start + PATH_BLOCK, paths)
        rng = substream(seed, STREAM_PATHS, start // PATH_BLOCK)
        increments = sqdt * rng.standard_normal((stop - start, steps))
        left = np.concatenate(
            [np.zeros((stop - start, 1)), np.cumsum(increments, axis=1)[:, :-1]], axis=1
        )
        out[start:stop] = _drift_values(b1, left)
    return out


class MomentEstimate(NamedTuple):
    estimate: float
    standard_error: float


def _mc_mean(sample: np.ndarray) -> MomentEstimate:
    """Monte-Carlo mean of sample with its standard error; a constant sample
    gives its common value exactly, with error 0."""
    if np.all(sample == sample[0]):
        return MomentEstimate(float(sample[0]), 0.0)
    return MomentEstimate(float(sample.mean()), float(sample.std(ddof=1) / math.sqrt(sample.size)))


class DriftDraw(NamedTuple):
    """The drift measure of the simulated paths and the two gates read off them."""

    measure: WeightedShifts
    novikov: MomentEstimate
    energy: MomentEstimate

    @property
    def drift_energy(self) -> CheckResult:
        """The strict excess-size gate, robust to Monte-Carlo noise: mean + 3 SE < 1."""
        upper = self.energy.estimate + 3.0 * self.energy.standard_error
        return CheckResult(upper < 1.0, upper, 1.0)


def simulate_drift_shifts(b1: Drift, steps: int, paths: int, seed: int = 0) -> DriftDraw:
    """Simulate the drift measure and its two gates from one draw of the paths
    on the uniform grid of [0, 1] with `steps` increments, dt = 1 / steps.

    Path j contributes h_j[i] = -sqrt(dt) * b1(B2_{t_{i-1}, j}) with uniform
    weight 1/paths; B2 is an independent Brownian motion evaluated at the
    left endpoints (B2_{t_0} = 0). The Novikov moment is the mean of
    exp(|h_j|^2 / 2); exponent overflow or an estimate above NOVIKOV_CEILING
    raises SdeNumericError. The drift energy, int_0^1 E[b1(B2_t)^2] dt, is
    the mean of dt * sum_i b1^2, accumulated from the drift values so that a
    constant drift is exact.
    """
    vals = _drift_at_left_points(b1, steps, paths, seed)
    dt = 1.0 / steps
    shifts = -math.sqrt(dt) * vals
    with np.errstate(over="ignore"):  # an infinite exponent is raised below
        exponents = 0.5 * np.sum(shifts**2, axis=1)
    if exponents.max() > EXP_OVERFLOW:
        raise SdeNumericError(
            f"Novikov check failed (numeric): exponent {exponents.max():.3g} overflows"
        )
    novikov = _mc_mean(np.exp(exponents))
    if novikov.estimate > NOVIKOV_CEILING:
        raise SdeNumericError(
            f"Novikov check failed (numeric): estimate {novikov.estimate:.3g} above ceiling "
            f"{NOVIKOV_CEILING:.3g}"
        )
    energy = _mc_mean(dt * np.sum(vals * vals, axis=1))
    return DriftDraw(WeightedShifts(np.full(paths, 1.0 / paths), shifts), novikov, energy)


# each drift kind: the name of its one parameter s (None for none) and b1(x, s)
DRIFT_KINDS: dict[str, tuple[str | None, Callable[[np.ndarray, float], np.ndarray]]] = {
    "zero": (None, lambda x, s: np.zeros_like(x)),
    "constant": ("value", lambda x, s: np.full_like(x, s)),
    "scaled_sin": ("scale", lambda x, s: s * np.sin(x)),
    "linear": ("slope", lambda x, s: s * x),
}


def drift_from_config(data: dict) -> Drift:
    """Build a drift from {'kind': ..., its parameter} config data.

    An unknown kind or any field beyond the kind's parameter is a ValueError;
    a missing parameter is a KeyError naming it, and one that is not a finite
    number (a string, a bool, NaN) a ConfigError.
    """
    from .config import _number  # config imports this module

    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in DRIFT_KINDS:
        raise ValueError(f"unknown drift kind {kind!r}")
    param, b1 = DRIFT_KINDS[kind]
    unknown = sorted(set(data) - {"kind", param})
    if unknown:
        raise ValueError(f"unknown field(s) {unknown} in a drift of kind {kind!r}")
    s = 0.0 if param is None else _number(data[param], param, float)
    return lambda x: b1(x, s)
