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
TruncationPolicy sets a lower one, and return a plain ChaosVector: exact on
every degree up to the cap, with nothing computed above it.

Every convolution reads one cached table of the space: the output position
of each index pair (alpha, beta) with |alpha| <= |beta| and
|alpha| + |beta| <= K, read in both orders, in the narrowest unsigned type
that holds size - 1 (uint16 up to 65,536 basis functions). Its rows are the
indices of one degree a and its columns those of degree a to K - a, so a
block's products are the outer product of two contiguous coefficient slices.
Blocks fill one fixed-size buffer pair, added into the output when full, so a
product never holds an array as long as the table.

Wick powers and the Wick exponential come from one ladder: with f = f_0 + u,
u starting at degree lo, the rungs u, u^{<>2}, ..., u^{<>K//lo} are all a
space of max_degree K holds, f^{<>n} = sum_j binom(n, j) f_0^(n-j) u^{<>j}
and exp<>(f) = e^{f_0} sum_j u^{<>j} / j!. The ladder costs K//lo - 1
restricted passes over the pair table, shared by every power of f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
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


class PairTable(NamedTuple):
    """Output positions of the index pairs (alpha, beta) with |alpha| <= |beta|
    and |alpha| + |beta| <= K, one per pair.

    groups[a], for a <= K // 2, is a row-major (bounds[a + 1] - bounds[a]) x
    (bounds[K - a + 1] - bounds[a]) view of out, one row per index of degree
    a and one column per index of degree a to K - a, whose entries are the
    positions of alpha + beta (bounds being the space's degree_bounds). The
    two indices of an entry are its row and column, and are not stored. A
    pair with |alpha| > |beta| is read as (beta, alpha).
    """

    out: np.ndarray
    groups: tuple[np.ndarray, ...]
    bounds: tuple[int, ...]


def _pair_table(space: GaussianSpace) -> PairTable:
    """The space's cached PairTable, one position per pair in the narrowest
    unsigned type that holds size - 1 (uint16 up to 65,536 rows).

    Row alpha of group a comes from the row of its parent alpha - e_k in
    group a - 1, k the last nonzero coordinate of alpha: the position of
    alpha + beta is that of (alpha - e_k + beta) + e_k, one lookup per entry
    in a table of unit steps, from the parent row's columns of degree a on.
    Both come from the suffix sums s_j of alpha, of which the first k + 1 are
    nonzero: rank(alpha + e_k) - rank(alpha) =
    sum_{j <= k} binom(s_j + d - j - 1, d - j - 1) for any k, and rank(alpha)
    minus rank(alpha - e_k) is sum_j binom(s_j + d - j - 2, d - j - 1). Steps
    are formed 2^12 / d indices at a time and the lookups in row chunks of
    about 2^13 entries, in the narrowest type that holds d * bounds[K], so
    the build holds little beyond the table.
    """

    def build(sp: GaussianSpace) -> PairTable:
        k_max, bounds, d = sp.max_degree, sp.degree_bounds.tolist(), sp.dimension
        rows = [bounds[a + 1] - bounds[a] for a in range(k_max // 2 + 1)]
        widths = [bounds[k_max - a + 1] - bounds[a] for a in range(k_max // 2 + 1)]
        starts = list(accumulate((r * w for r, w in zip(rows, widths)), initial=0))
        position, lookup = np.min_scalar_type(sp.size - 1), np.min_scalar_type(d * bounds[k_max])
        # step[k, p] is the position of indices[p] + e_k, |indices[p]| < K; np.take reads it flat
        step, chunk = np.empty((d, bounds[k_max]), dtype=position), max(1, (1 << 12) // d)
        for r in range(0, bounds[k_max], chunk):
            e = min(r + chunk, bounds[k_max])
            # _binoms[_suffix_rows(alpha) - K - 1 + c][j] = binom(s_j + c + d - j - 2, d - j - 1)
            steps = np.cumsum(sp._binoms[sp._suffix_rows(sp.indices[r:e]) - k_max], axis=1)
            step[:, r:e] = (steps + np.arange(r, e)[:, None]).T
        out = np.empty(starts[-1], dtype=position)
        groups = tuple(
            out[s:e].reshape(r, w) for s, e, r, w in zip(starts, starts[1:], rows, widths)
        )
        out[: sp.size] = np.arange(sp.size)
        for a in range(1, k_max // 2 + 1):
            skip, cur, width = bounds[a] - bounds[a - 1], groups[a], widths[a]
            # group a - 1 from its first column of degree a on
            prev, chunk = groups[a - 1][:, skip : skip + width], max(1, (1 << 13) // width)
            suffix = sp._suffix_rows(sp.indices[bounds[a] : bounds[a + 1]])
            # the row of alpha - e_k in prev, and the block of step that adds e_k
            parent = np.arange(skip, skip + rows[a]) - sp._binoms[suffix - k_max - 1].sum(axis=1)
            offset = (((suffix > sp._binom_rows).sum(axis=1) - 1) * bounds[k_max]).astype(lookup)
            for r in range(0, rows[a], chunk):
                lookups = prev[parent[r : r + chunk]] + offset[r : r + chunk, None]
                np.take(step, lookups, out=cur[r : r + chunk], mode="clip")
        return PairTable(out, groups, tuple(bounds))

    return space.cached("pair_table", build)


def pair_footprint(space: GaussianSpace) -> tuple[int, int]:
    """Index pairs the space's pair table stores and the bytes their
    positions take, from the sizes alone: no table is built."""
    b, k_max = space.degree_bounds.tolist(), space.max_degree
    pairs = sum((b[a + 1] - b[a]) * (b[k_max - a + 1] - b[a]) for a in range(k_max // 2 + 1))
    return pairs, pairs * np.min_scalar_type(space.size - 1).itemsize


# Entries of _convolve's float and position buffers, 512 KB for the pair
_CAPACITY = 1 << 15


def _convolve(
    left: np.ndarray, right: np.ndarray, table: PairTable, a_range: range, b_range: range, top: int
) -> np.ndarray:
    """sum_{alpha + beta = gamma} left_alpha right_beta over |alpha| in a_range,
    |beta| in b_range and |gamma| <= top; every other output bin is zero.

    Pairs with |alpha| <= |beta| come from group |alpha| in ascending |alpha|,
    rows alpha by columns beta, as left_alpha * right_beta; then the others
    from group |beta| in descending |beta|, rows beta reversed by columns
    alpha, as right_beta * left_alpha (an IEEE multiply commutes). Whole rows
    fill one float and one intp buffer of _CAPACITY entries (or one row, or
    the call's pairs), and np.add.at adds it in index order when full. So a
    bin of degree m gets its terms in one fixed order, left degree then left
    index: a <= m / 2 before a > m / 2, and within a block it meets each alpha
    once, with beta = gamma - alpha, where alpha -> gamma - alpha reverses a
    degree's descending lexicographic order. A bincount over the pairs sorted
    by output degree, left degree and left index sums in the same order.
    """
    bounds, blocks = table.bounds, []

    def add_block(g, rows, cols, lo, hi, step):
        # group g's rows, in the direction step, against its columns of degrees lo..hi
        if lo <= hi:
            c0, c1 = bounds[lo] - bounds[g], bounds[hi + 1] - bounds[g]
            own = rows[bounds[g] : bounds[g + 1], None][::step]  # a column of coefficients
            blocks.append((own, cols[bounds[lo] : bounds[hi + 1]], table.groups[g][::step, c0:c1]))

    for a in range(a_range.start, min(a_range.stop, top // 2 + 1)):
        add_block(a, left, right, max(a, b_range.start), min(b_range.stop - 1, top - a), 1)
    for b in reversed(range(b_range.start, min(b_range.stop, (top + 1) // 2))):
        add_block(b, right, left, max(b + 1, a_range.start), min(a_range.stop - 1, top - b), -1)
    size = max([min(sum(p.size for *_, p in blocks), _CAPACITY)] + [c.size for _, c, _ in blocks])
    acc, prods, where, n = np.zeros(left.size), np.empty(size), np.empty(size, np.intp), 0
    for rows, cols, positions in blocks:
        width, r = cols.size, 0
        while n + (len(rows) - r) * width > size:  # fill the buffer with rows that fit, add it
            k = (size - n) // width
            m = n + k * width
            np.multiply(rows[r : r + k], cols, out=prods[n:m].reshape(k, width))
            where[n:m].reshape(k, width)[...] = positions[r : r + k]
            np.add.at(acc, where[:m], prods[:m])
            n, r = 0, r + k
        m = n + (len(rows) - r) * width
        np.multiply(rows[r:], cols, out=prods[n:m].reshape(-1, width))
        where[n:m].reshape(-1, width)[...] = positions[r:]
        n = m
    np.add.at(acc, where[:n], prods[:n])
    return acc


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
    degrees = range(cap + 1)
    prod = _convolve(f.coeffs, g.coeffs, _pair_table(space), degrees, degrees, cap)
    return ChaosVector(space, prod)


def excess_powers(f: ChaosVector, top: int | None = None) -> list[ChaosVector]:
    """Wick powers u^{<>0..J} of the excess u = f - f_0, J = min(top, K // lo).

    u lives in degrees lo >= 1 to hi, so u^{<>j} lives in j lo to j hi. Rung
    j = u <> u^{<>(j-1)} convolves u's degrees [lo, hi] with the degrees
    [(j-1) lo, (j-1) hi] of the rung below, up to degree K. Nothing is
    divided by f_0.
    """
    space, k_max = f.space, f.space.max_degree
    u = f.coeffs.copy()
    u[0] = 0.0
    support = space.degrees[u != 0]
    if support.size == 0 or top == 0:
        return [constant_vector(space)]
    lo, hi = int(support.min()), int(support.max())
    rungs, table = [constant_vector(space), ChaosVector(space, u)], _pair_table(space)
    for j in range(2, min(top or k_max, k_max // lo) + 1):
        below = range((j - 1) * lo, (j - 1) * hi + 1)
        rung = _convolve(u, rungs[-1].coeffs, table, range(lo, hi + 1), below, k_max)
        rungs.append(ChaosVector(space, rung))
    return rungs


def power_from_ladder(
    f0: float, rungs: list[ChaosVector], n: int, lam: float = 1.0
) -> ChaosVector:
    """(gamma(lam) f)^{<>n} = sum_{j <= n} binom(n, j) f0^(n-j) gamma(lam) u^{<>j}.

    rungs is excess_powers(f) up to rung min(n, J) at least, f0 is f's
    constant term. The weight binom(n, j) lam^(j lo) is a running float
    product, at most (n lam^2)^j / j! when lo >= 2, and rung j's degree m
    picks up the remaining lam^(m - j lo): nothing overflows for
    lam = sqrt(alpha/n), whatever n is. A power f0^(n-j) outside the float
    range is a ValueError.
    """
    space, rungs = rungs[0].space, rungs[: n + 1]
    lo = int(space.degrees[np.flatnonzero(rungs[1].coeffs)[0]]) if len(rungs) > 1 else 1
    lam_pow = lam ** np.arange(space.max_degree + 1)
    total, weight = np.zeros(space.size), 1.0
    for j, rung in enumerate(rungs):
        weight *= (n - j + 1) / j * lam**lo if j else 1.0
        b = space.degree_bounds[j * lo]
        try:
            f0_pow = f0 ** (n - j)
        except OverflowError:
            raise ValueError(
                f"Wick power overflows a float: constant term f0 = {f0!r}, n = {n}"
            ) from None
        scale = (weight * f0_pow) * lam_pow[space.degrees[b:] - j * lo]
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
    is: the shift is then the unit, and f <> 1 = f exactly. A NaN or infinite
    degree-0 coefficient is refused like any other mass off one.
    """
    if not abs(f.coeffs[0] - 1.0) <= 1e-12:
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
