"""Wick product, degreewise scaling, stochastic exponentials, centering.

On the coefficient representation of basis.py the Wick product is the
additive convolution of multi-indices,

    c_gamma(f <> g) = sum_{alpha + beta = gamma} c_alpha(f) c_beta(g),

which realizes the kernel-level rule (degree-k) <> (degree-j) -> degree-(k+j)
with symmetrized tensor kernels. The scaling operator gamma(lambda)
multiplies degree-k coefficients by lambda^k; gamma(exp(-t)) is the
Ornstein-Uhlenbeck semigroup, and ou_apply provides an independent
Monte-Carlo check of that identity through the Mehler integral form.

Products are truncated at a cap degree, the space's max_degree unless a
TruncationPolicy sets a lower one, and return a plain ChaosVector. The L2
mass a cap drops is not tracked per product; `discarded_mass` computes it on
request by forming the product uncapped in a wide enough space. Wick powers
and the Wick exponential are built one chaos degree at a time, up to the
space's max_degree, by one graded recurrence over the same pair table as
the product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .basis import (
    ChaosVector,
    GaussianSpace,
    ChaosError,
    _require_same_space,
    constant_vector,
    eval_at,
    eval_many,
    extract_mean,
    monomial_powers,
)
from .streams import STREAM_OU, substream


class NotNormalizedError(ChaosError):
    """Density operation applied to a vector whose mass is not one."""


@dataclass(frozen=True)
class TruncationPolicy:
    """Degree cap for wick_product, below the space's max_degree."""

    cap_degree: int

    def __post_init__(self) -> None:
        if self.cap_degree < 0:
            raise ValueError("cap_degree must be nonnegative")


def _pair_table(space: GaussianSpace):
    """All ordered index pairs with |alpha|+|beta| <= K, grouped by out degree.

    Within out degree m the pairs are grouped by the degree a of the left
    index, a = 0..m. Returns (i_idx, j_idx, out_idx, starts) where
    starts[m, a] is the first pair of block (m, a) and starts[m, m+1] =
    starts[m+1, 0] ends degree m, so every run of consecutive blocks is a
    slice. Slicing at starts[cap+1, 0] restricts a convolution to outputs of
    degree <= cap.
    """

    def build(sp: GaussianSpace):
        k_max = sp.max_degree
        deg_pos = [np.nonzero(sp.degrees == m)[0] for m in range(k_max + 1)]
        chunks_i, chunks_j, chunks_out = [], [], []
        starts = np.zeros((k_max + 2, k_max + 2), dtype=np.int64)
        total = 0
        for m in range(k_max + 1):
            for a in range(m + 1):
                starts[m, a] = total
                ia, ib = deg_pos[a], deg_pos[m - a]
                out = sp.positions_of_sums(ia, ib)
                chunks_i.append(np.repeat(ia, ib.size))
                chunks_j.append(np.tile(ib, ia.size))
                chunks_out.append(out.reshape(-1))
                total += out.size
            starts[m, m + 1] = total
        starts[k_max + 1, 0] = total
        return (
            np.concatenate(chunks_i),
            np.concatenate(chunks_j),
            np.concatenate(chunks_out),
            starts,
        )

    return space.cached("pair_table", build)


def wick_product(
    f: ChaosVector, g: ChaosVector, policy: TruncationPolicy | None = None
) -> ChaosVector:
    """Wick product truncated at the policy's cap degree (default: the space's).

    Bilinear, commutative, and exact on all output degrees <= cap_degree;
    the unit element is the constant one. H_alpha <> H_beta = H_{alpha+beta}.
    """
    space = _require_same_space(f, g)
    cap = space.max_degree if policy is None else policy.cap_degree
    if cap > space.max_degree:
        raise ValueError("cap_degree exceeds the space's max_degree")
    i_idx, j_idx, out_idx, starts = _pair_table(space)
    stop = starts[cap + 1, 0]
    prod = np.bincount(
        out_idx[:stop],
        weights=f.coeffs[i_idx[:stop]] * g.coeffs[j_idx[:stop]],
        minlength=space.size,
    )
    return ChaosVector(space, prod)


def discarded_mass(f: ChaosVector, g: ChaosVector, cap: int) -> float:
    """Squared L2 norm of the part of f <> g above degree `cap`.

    The product is formed uncapped in GaussianSpace(d, deg f + deg g), which
    is cached on the operands' space with its pair table. The graded order
    makes each space's table a prefix of every wider one, so zero-padding
    (or dropping trailing zeros) carries the coefficients over unchanged.
    """
    space = _require_same_space(f, g)
    top = f.max_nonzero_degree() + g.max_nonzero_degree()
    if top <= cap:
        return 0.0
    wide = space.cached(f"padded_{top}", lambda sp: GaussianSpace(sp.dimension, top))
    keep = min(wide.size, space.size)

    def padded(v: ChaosVector) -> ChaosVector:
        c = np.zeros(wide.size)
        c[:keep] = v.coeffs[:keep]
        return ChaosVector(wide, c)

    above = wide.degrees > cap
    tail = wick_product(padded(f), padded(g)).coeffs[above]
    return float(np.dot(wide.factorials[above] * tail, tail))


def _graded_recurrence(
    f: ChaosVector, g0: float, weight: Callable[[int, np.ndarray], np.ndarray]
) -> ChaosVector:
    """The g with g_0 = g0 and, for m = 1..K (the space's max_degree),

        g_m = (1/m) sum_{k=1..m} weight(m, k) f_k <> g_{m-k},

    where f_k is the degree-k part of f.

    This is J.C.P. Miller's power-series recurrence (Knuth, TAOCP vol. 2,
    4.7) graded by chaos degree: the Euler operator (degree k times k) is a
    derivation for the Wick product. Degree m reads the pairs of out degree m
    whose left index has a degree between f's lowest and highest nonzero
    degree above zero. Those blocks are consecutive in the pair table, so
    each degree is one bincount over a view of it, and g_{m-k} is complete
    before degree m reads it.
    """
    space = f.space
    i_idx, j_idx, out_idx, starts = _pair_table(space)
    bounds = np.searchsorted(space.degrees, np.arange(space.max_degree + 2))
    support = space.degrees[1:][f.coeffs[1:] != 0]
    g = np.zeros(space.size)
    g[0] = g0
    if support.size == 0:
        return ChaosVector(space, g)
    k_lo, k_hi = int(support.min()), int(support.max())
    for m in range(k_lo, space.max_degree + 1):
        lo, hi = starts[m, k_lo], starts[m, min(m, k_hi) + 1]
        fw = f.coeffs * (weight(m, space.degrees) / m)
        sums = np.bincount(
            out_idx[lo:hi],
            weights=fw[i_idx[lo:hi]] * g[j_idx[lo:hi]],
            minlength=space.size,
        )
        g[bounds[m] : bounds[m + 1]] = sums[bounds[m] : bounds[m + 1]]
    return ChaosVector(space, g)


def wick_power(f: ChaosVector, n: int) -> ChaosVector:
    """n-th Wick power, exact on every degree the space represents.

    When the constant term dominates (the |c_alpha| of degrees >= 1 sum to at
    most |c_0|), the graded recurrence builds the power degree by degree from
    g_0 = c_0^n with weights ((n+1)k - m)/c_0: one pass over the pair table.
    The recurrence divides by c_0 and loses its accuracy when c_0 is small
    next to the rest, so every other input (c_0 = 0 among them) takes binary
    exponentiation. Capped convolution never corrupts the degrees it keeps,
    so that route agrees with the n-fold product on every represented degree
    regardless of the multiplication order.
    """
    if n < 0:
        raise ValueError("Wick power needs a nonnegative exponent")
    if n == 0:
        return constant_vector(f.space)
    if n == 1:
        return f
    f0 = float(f.coeffs[0])
    if f0 != 0.0 and np.abs(f.coeffs[1:]).sum() <= abs(f0):
        return _graded_recurrence(f, f0**n, lambda m, k: ((n + 1.0) * k - m) / f0)
    result: ChaosVector | None = None
    base = f
    remaining = n
    while True:
        if remaining & 1:
            result = base if result is None else wick_product(result, base)
        remaining >>= 1
        if remaining == 0:
            break
        base = wick_product(base, base)
    return result


def wick_exp(f: ChaosVector) -> ChaosVector:
    """Wick exponential sum_j f^{<>j} / j!, exact on every represented degree.

    The graded recurrence from g_0 = exp(c_0) with weights k. The weights are
    positive and nothing is divided by a coefficient of f, so every input
    takes this route.
    """
    return _graded_recurrence(f, math.exp(f.coeffs[0]), lambda m, k: k)


def gamma(lam: float, f: ChaosVector) -> ChaosVector:
    """Degreewise scaling: coefficient at degree k picks up lambda^k.

    Defined for lambda in [0, 1]; gamma(1) is the identity and
    gamma(exp(-t)) is the Ornstein-Uhlenbeck semigroup at time t. Values
    outside [0, 1] are rejected, not extrapolated.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"scaling parameter must lie in [0, 1], got {lam}")
    scale = np.power(float(lam), f.space.degrees.astype(float))
    if lam == 0.0:
        scale = np.where(f.space.degrees == 0, 1.0, 0.0)
    return ChaosVector(f.space, f.coeffs * scale)


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
    Exists as an oracle for the coefficient route, hence sampling rather
    than quadrature.
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


def stochastic_exponential(h, space: GaussianSpace) -> ChaosVector:
    """Density of the h-shifted Gaussian: coefficients h^alpha / alpha!.

    Pointwise this is exp(<w, h> - |h|^2/2) up to the truncation tail.
    """
    h = np.asarray(h, dtype=float).reshape(-1)
    if h.shape != (space.dimension,):
        raise ValueError(f"shift must have length {space.dimension}")
    coeffs = monomial_powers(space, h) / space.factorials
    return ChaosVector(space, coeffs)


def s_transform(f: ChaosVector, h) -> float:
    """sum_alpha c_alpha h^alpha, the pairing of f with a stochastic exponential.

    Equals chaos_inner(f, stochastic_exponential(h)) but is computed in closed
    form without building the exponential; turns Wick products into ordinary
    products of values.
    """
    h = np.asarray(h, dtype=float).reshape(-1)
    if h.shape != (f.space.dimension,):
        raise ValueError(f"argument must have length {f.space.dimension}")
    return float(np.dot(f.coeffs, monomial_powers(f.space, h)))


def center_density(f: ChaosVector) -> ChaosVector:
    """Density of the centered variable: f Wick-multiplied by the opposite shift.

    Requires unit mass (degree-0 coefficient one). The result has zero
    degree-1 coefficients and its degree-2 kernel equals the excess kernel
    G = f2 - f1 f1^T / 2 of the input. A mean-free input is returned as it
    is: the shift is then the unit, and f <> 1 = f exactly.
    """
    if abs(f.coeffs[0] - 1.0) > 1e-12:
        raise NotNormalizedError(
            f"not a normalized density: degree-0 coefficient is {float(f.coeffs[0]):.17g}"
        )
    mean = extract_mean(f)
    if not mean.any():
        return f
    return wick_product(f, stochastic_exponential(-mean, f.space))
