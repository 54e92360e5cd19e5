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
request by forming the product uncapped in a wide enough space.

Wick powers and the Wick exponential come from one ladder: with f = f_0 + u,
u starting at degree lo, the rungs u, u^{<>2}, ..., u^{<>K//lo} are all a
space of max_degree K holds, f^{<>n} = sum_j binom(n, j) f_0^(n-j) u^{<>j}
and exp<>(f) = e^{f_0} sum_j u^{<>j} / j!. The ladder costs K//lo - 1
restricted passes over the pair table, shared by every power of f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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


def excess_powers(f: ChaosVector, top: int | None = None) -> list[ChaosVector]:
    """Wick powers u^{<>0..J} of the excess u = f - f_0, J = min(top, K // lo).

    u lives in degrees lo >= 1 to hi, so u^{<>j} lives in j lo to j hi. Rung
    j = u <> u^{<>(j-1)} reads, per out degree m, the pair blocks whose left
    index (from u) has a degree in [max(lo, m - (j-1) hi), min(hi, m - (j-1) lo)]:
    one slice of the pair table. Nothing is divided by f_0.
    """
    space, k_max = f.space, f.space.max_degree
    rungs = [constant_vector(space).coeffs, f.coeffs.copy()]
    rungs[1][0] = 0.0
    support = space.degrees[rungs[1] != 0]
    if support.size == 0 or top == 0:
        return [constant_vector(space)]
    u, lo, hi = rungs[1], int(support.min()), int(support.max())
    i_idx, j_idx, out_idx, starts = _pair_table(space)
    bounds = np.searchsorted(space.degrees, np.arange(k_max + 2))
    for j in range(2, min(top or k_max, k_max // lo) + 1):
        rungs.append(np.zeros(space.size))
        for m in range(j * lo, min(k_max, j * hi) + 1):
            s = starts[m, max(lo, m - (j - 1) * hi)]
            e = starts[m, min(hi, m - (j - 1) * lo) + 1]
            prods = u[i_idx[s:e]] * rungs[-2][j_idx[s:e]]
            sums = np.bincount(out_idx[s:e], weights=prods, minlength=bounds[m + 1])
            rungs[-1][bounds[m] : bounds[m + 1]] = sums[bounds[m] :]
    return [ChaosVector(space, r) for r in rungs]


def power_from_ladder(
    f0: float, rungs: list[ChaosVector], n: int, lam: float = 1.0
) -> ChaosVector:
    """(gamma(lam) f)^{<>n} = sum_{j <= n} binom(n, j) f0^(n-j) gamma(lam) u^{<>j}.

    rungs is excess_powers(f) up to rung min(n, J) at least, f0 is f's
    constant term. The weight binom(n, j) lam^(j lo) is a running float
    product, at most (n lam^2)^j / j! when lo >= 2, and rung j's degree m
    picks up the remaining lam^(m - j lo): nothing overflows for
    lam = sqrt(alpha/n), whatever n is.
    """
    space, rungs = rungs[0].space, rungs[: n + 1]
    lo = int(space.degrees[np.flatnonzero(rungs[1].coeffs)[0]]) if len(rungs) > 1 else 1
    bounds = np.searchsorted(space.degrees, np.arange(space.max_degree + 2))
    lam_pow = lam ** np.arange(space.max_degree + 1)
    total, weight = np.zeros(space.size), 1.0
    for j, rung in enumerate(rungs):
        weight *= (n - j + 1) / j * lam**lo if j else 1.0
        b = bounds[j * lo]
        scale = (weight * f0 ** (n - j)) * lam_pow[space.degrees[b:] - j * lo]
        total[b:] += scale * rung.coeffs[b:]
    return ChaosVector(space, total)


def wick_power(f: ChaosVector, n: int) -> ChaosVector:
    """n-th Wick power, exact on every degree the space represents, for any f_0."""
    if n < 0:
        raise ValueError("Wick power needs a nonnegative exponent")
    return power_from_ladder(float(f.coeffs[0]), excess_powers(f, top=n), n)


def wick_exp(f: ChaosVector) -> ChaosVector:
    """Wick exponential e^{c_0} sum_j u^{<>j} / j! over the ladder of f's excess u."""
    total, weight = np.zeros(f.space.size), 1.0
    for j, rung in enumerate(excess_powers(f)):
        weight /= max(j, 1)
        total += weight * rung.coeffs
    return ChaosVector(f.space, math.exp(f.coeffs[0]) * total)


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
    centered = wick_product(f, stochastic_exponential(-mean, f.space)).coeffs.copy()
    # the degree-1 block is f_1 (1 - f_0): not zero when f_0 is one only to the tolerance
    centered[f.space.degrees == 1] = 0.0
    return ChaosVector(f.space, centered)
