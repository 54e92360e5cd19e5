"""Helpers shared by the test modules, and the oracles that only tests use."""

import hashlib
import math
from typing import NamedTuple

import numpy as np

from wickllt.basis import ChaosVector, eval_at, eval_many, hermite_table
from wickllt.streams import substream

# the stream tag of ou_apply's Monte Carlo points (see wickllt.streams)
STREAM_OU = 5


def sha256_file(path) -> str:
    """SHA-256 hex digest of the file at path."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def hermite_eval(n: int, x):
    """He_n(x) for the probabilists' Hermite polynomials: row n of
    hermite_table. Accepts scalars or arrays; a scalar gives a float."""
    if n < 0:
        raise ValueError("Hermite order must be nonnegative")
    value = hermite_table(n, x)[n]
    return value if value.shape else float(value)


class OuEstimate(NamedTuple):
    value: float
    standard_error: float


def ou_apply(
    t: float,
    f: ChaosVector,
    w,
    mc_samples: int = 4096,
    seed: int = 0,
) -> OuEstimate:
    """Monte-Carlo Mehler-integral evaluation of the OU semigroup at a point.

    Estimates E[f(exp(-t) w + sqrt(1 - exp(-2t)) W)] with W standard normal;
    converges to eval_at(gamma(exp(-t), f), w) as the sample count grows.
    An oracle for the coefficient route, hence sampling rather than
    quadrature.
    """
    if t < 0:
        raise ValueError("time parameter must be nonnegative")
    w = np.asarray(w, dtype=float).reshape(-1)
    if w.shape != (f.space.dimension,):
        raise ValueError("point dimension mismatch")
    decay = math.exp(-t)
    spread = math.sqrt(max(0.0, 1.0 - decay * decay))
    if spread == 0.0:
        return OuEstimate(eval_at(f, w), 0.0)
    rng = substream(seed, STREAM_OU)
    pts = decay * w[None, :] + spread * rng.standard_normal((mc_samples, f.space.dimension))
    vals = eval_many(f, pts)
    se = float(vals.std(ddof=1) / math.sqrt(mc_samples))
    return OuEstimate(float(vals.mean()), se)


def limit_char_functional(g2, h) -> float:
    """exp(-h^T G h - |h|^2 / 2), the characteristic functional of the limit law."""
    g = np.atleast_2d(np.asarray(g2, dtype=float))
    h = np.asarray(h, dtype=float).reshape(-1)
    if h.shape[0] != g.shape[0]:
        raise ValueError("argument dimension does not match the kernel")
    return float(math.exp(-float(h @ g @ h) - 0.5 * float(h @ h)))
