"""Multi-index Hermite basis and chaos coefficient vectors on Gaussian R^d.

The ambient space is R^d with the standard Gaussian measure mu_d. Every
square-integrable function is stored by its coefficients on the product
Hermite basis

    H_alpha(w) = prod_i He_{alpha_i}(w_i),      |alpha| <= max_degree,

where He_n are the probabilists' Hermite polynomials (E[He_n He_m] = n! delta_nm).
A symmetric degree-k tensor kernel T corresponds to the coefficients
c_alpha = (k!/alpha!) T_alpha, so the squared norm of the degree-k slice is
k! |T|^2 and the full norm identity reads ||f||_2^2 = sum_alpha alpha! c_alpha^2.
Under this convention the Wick product acts as a plain additive convolution
of multi-index coefficients (see wick.py).

A space has one index representation: the rows of its read-only int array
`indices`, in graded order. Every lookup of an index goes through its
closed-form graded rank (`GaussianSpace.positions`), and the one
one-multiply-per-row recursion over the table, which builds Hermite and
monomial tables alike, reads one cached fill plan (`_fill_plan`): the rows
of the pure powers, which hold the one-dimensional values, and one
broadcast multiply per run of the other rows.

Tables over the full space are never formed. Evaluation and the monomial
sums of shift mixtures factor every index into a head over the first d // 2
coordinates and a tail over the rest (`SumSplit`, sum factorization), so a
chunk of points needs only the head and the tail table, joined by dense
matrix products. When the head and the tail share a space (every even d),
one table of twice the columns holds both. Evaluation contracts each block
of coefficients over its longer side into a partial table, and sizes its
chunks so that the head, tail and partial tables of one chunk stay within
TABLE_BYTES.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import numpy as np

# Hard caps on the basis: rows (16 MB for each per-row array such as the
# degrees), and index-table entries, rows times d (80 MB of int64). Beyond
# either, a space is a config mistake, not a use case: d = 200 at degree 3
# would be a 2.2 GB table, while d = 20 at 6 and d = 256 at 2 fit.
MAX_BASIS_SIZE = 2_000_000
MAX_INDEX_ENTRIES = 10**7
# Largest degree whose factorial a float holds: 171! overflows, and every
# norm weighs a coefficient by alpha!.
MAX_DEGREE = 170
# Largest dimension (coordinates, or time steps of a path). Enumerating a
# basis takes time like its size times d: about 0.06 s at d = 256, degree 2.
MAX_DIMENSION = 256


class ChaosError(Exception):
    """Base class for chaos-representation errors."""


class BasisTooLargeError(ChaosError):
    """Requested index table exceeds the configured memory cap."""


class IncompatibleBasisError(ChaosError):
    """Operands live on different bases."""


class InsufficientDegreeError(ChaosError):
    """Operation needs higher-degree coefficients than the space carries."""


def factorial_float(n: int) -> float:
    """n! as a float; exact integer arithmetic below 21, log-gamma above."""
    if n < 0:
        raise ValueError("factorial of negative integer")
    if n <= 20:
        return float(math.factorial(n))
    return math.exp(math.lgamma(n + 1.0))


def enumerate_indices(
    dimension: int, max_degree: int, size_cap: int = MAX_BASIS_SIZE
) -> np.ndarray:
    """All multi-indices with |alpha| <= max_degree in graded order, one per row.

    Within one degree the order is by decreasing first coordinate, then
    recursively on the remainder: the lexicographic order of the sorted
    coordinate tuples (itertools.combinations_with_replacement order). The
    full table has binom(d + K, K) rows, built one degree at a time.
    """
    if not 1 <= dimension <= MAX_DIMENSION:
        raise ValueError(f"dimension must lie in [1, {MAX_DIMENSION}], got {dimension}")
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    if max_degree > MAX_DEGREE:
        raise ValueError(
            f"max_degree must be at most {MAX_DEGREE} ({MAX_DEGREE + 1}! overflows a float)"
        )
    size = math.comb(dimension + max_degree, max_degree)
    if size > size_cap or size * dimension > MAX_INDEX_ENTRIES:
        raise BasisTooLargeError(
            f"basis too large: {size} indices for d={dimension}, K={max_degree}, "
            f"{size * dimension} table entries (caps {size_cap} indices, "
            f"{MAX_INDEX_ENTRIES} entries)"
        )
    # Read as sorted coordinate tuples i_1 <= ... <= i_n, the indices of
    # degree n are in lexicographic order: for each index of degree n - 1, in
    # order, that index plus e_j for j from its last nonzero coordinate (0 for
    # the zero index) to d - 1.
    level = np.zeros((1, dimension), dtype=np.int64)
    last = np.zeros(1, dtype=np.int64)
    degrees = [level]
    for _ in range(max_degree):
        counts = dimension - last
        level = np.repeat(level, counts, axis=0)
        firsts = np.cumsum(counts) - counts
        last = np.repeat(last - firsts, counts) + np.arange(len(level))
        level[np.arange(len(level)), last] += 1
        degrees.append(level)
    return np.vstack(degrees)


@dataclass(frozen=True, eq=False)
class GaussianSpace:
    """Finite-dimensional Gaussian model: R^d, standard Gaussian, degree cap K.

    Holds the canonical graded enumeration of all multi-indices with
    |alpha| <= max_degree as the read-only int array `indices`; the indices
    of degree m are rows degree_bounds[m]:degree_bounds[m + 1]. The position
    of an index is its graded rank, computed in closed form: the number of
    indices of lower degree plus, for every coordinate i < d - 1, the number
    of same-degree indices that agree with alpha before i and are larger at
    i. With s_j = alpha_j + ... + alpha_{d-1} (so s_0 = |alpha|) each count is
    a hockey-stick sum, and the rank is sum_j binom(s_j + d - j - 1, d - j).
    Instances are immutable; the internal cache only memoizes derived
    read-only structures.
    """

    dimension: int
    max_degree: int

    def __post_init__(self) -> None:
        indices = enumerate_indices(self.dimension, self.max_degree)
        indices.setflags(write=False)
        degrees = indices.sum(axis=1)
        degrees.setflags(write=False)
        degree_bounds = np.searchsorted(degrees, np.arange(self.max_degree + 2))
        degree_bounds.setflags(write=False)
        fact_1d = np.array(
            [factorial_float(n) for n in range(self.max_degree + 1)], dtype=float
        )
        factorials = np.prod(fact_1d[indices], axis=1)
        factorials.setflags(write=False)
        # binoms[k, s] = binom(s + k - 1, k), by Pascal's rule as running sums;
        # every entry used is at most the table size, so int64 is exact.
        k_max = self.max_degree
        binoms = np.empty((self.dimension + 1, k_max + 1), dtype=np.int64)
        binoms[0] = 1
        binoms[0, 0] = 0
        for k in range(1, self.dimension + 1):
            binoms[k] = np.cumsum(binoms[k - 1])
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "degree_bounds", degree_bounds)
        object.__setattr__(self, "factorials", factorials)
        object.__setattr__(self, "_binoms", binoms.ravel())
        object.__setattr__(
            self,
            "_binom_rows",
            (self.dimension - np.arange(self.dimension)) * (k_max + 1),
        )
        object.__setattr__(self, "_cache", {})

    @property
    def size(self) -> int:
        return len(self.indices)

    def _suffix_rows(self, indices: np.ndarray) -> np.ndarray:
        # Flat index into _binoms of each rank term: row d - j, column s_j.
        return np.cumsum(indices[..., ::-1], axis=-1)[..., ::-1] + self._binom_rows

    def positions(self, indices: np.ndarray) -> np.ndarray:
        """Graded rank of each row of an int array of in-space multi-indices."""
        return self._binoms[self._suffix_rows(indices)].sum(axis=-1)

    def positions_of_sums(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Positions of indices[l] + indices[r], shape (len(left), len(right)).

        Every such sum must lie in the space. Suffix sums add under
        alpha + beta, so each rank is one table lookup per coordinate and the
        summed indices are never formed.
        """
        rows_l = self._suffix_rows(self.indices[left])
        rows_r = self._suffix_rows(self.indices[right]) - self._binom_rows
        out = np.zeros((len(left), len(right)), dtype=np.int64)
        for j in range(self.dimension):
            out += self._binoms[rows_l[:, j, None] + rows_r[None, :, j]]
        return out

    def position(self, entries) -> int:
        """Position of one multi-index; ValueError if it is not in the space.

        Each entry must be a Python or numpy int: operator.index refuses a
        float or a string, and a bool is refused here.
        """
        try:
            if any(isinstance(e, bool) for e in entries):
                raise TypeError("a bool entry")
            alpha = [operator.index(e) for e in entries]
        except TypeError as exc:
            raise ValueError(f"multi-index {entries!r} is not a list of integers") from exc
        if len(alpha) != self.dimension:
            reason = f"has length {len(alpha)}"
        elif min(alpha) < 0:
            reason = "has a negative entry"
        elif sum(alpha) > self.max_degree:
            reason = f"has degree {sum(alpha)}"
        else:
            return int(self.positions(np.array(alpha)))
        raise ValueError(
            f"multi-index {alpha} {reason}, outside the space "
            f"(d={self.dimension}, K={self.max_degree})"
        )

    def split(self) -> "SumSplit":
        """The cached head/tail factorization of this space (see SumSplit)."""
        return self.cached("split", _build_split)

    def cached(self, key: str, builder: Callable[["GaussianSpace"], object]) -> object:
        """Memoize a derived structure, built at most once until released; a
        builder may itself call cached for another key."""
        cache = self._cache
        if key not in cache:
            cache[key] = builder(self)
        return cache[key]

    def release(self, key: str) -> None:
        """Drop what cached holds under key, if any; the next call builds it."""
        self._cache.pop(key, None)

    def is_compatible(self, other: "GaussianSpace") -> bool:
        return (
            self.dimension == other.dimension and self.max_degree == other.max_degree
        )


def _require_same_space(f: "ChaosVector", g: "ChaosVector") -> GaussianSpace:
    if f.space is not g.space and not f.space.is_compatible(g.space):
        raise IncompatibleBasisError(
            "incompatible bases: "
            f"(d={f.space.dimension}, K={f.space.max_degree}) vs "
            f"(d={g.space.dimension}, K={g.space.max_degree})"
        )
    return f.space


def hermite_eval(n: int, x):
    """He_n(x) for the probabilists' Hermite polynomials: row n of
    hermite_table. Accepts scalars or arrays; a scalar gives a float."""
    if n < 0:
        raise ValueError("Hermite order must be nonnegative")
    value = hermite_table(n, x)[n]
    return value if value.shape else float(value)


def hermite_table(max_order: int, x) -> np.ndarray:
    """He_0..He_max_order evaluated at x, a scalar or an array; shape
    (max_order+1, *x.shape), by the three-term recurrence He_{k+1} =
    x He_k - k He_{k-1} with He_0 = 1, He_1 = x."""
    arr = np.asarray(x, dtype=float)
    out = np.empty((max_order + 1,) + arr.shape)
    out[0] = 1.0
    if max_order >= 1:
        out[1] = arr
    for k in range(1, max_order):
        # out[k + 1, ...] is an array view even for a scalar x
        np.multiply(arr, out[k], out=out[k + 1, ...])
        out[k + 1, ...] -= k * out[k - 1]
    return out


def power_table(max_power: int, x) -> np.ndarray:
    """x^0..x^max_power at x, a scalar or an array; shape (max_power+1,
    *x.shape), by the recurrence x^{k+1} = x * x^k with x^0 = 1, x^1 = x."""
    arr = np.asarray(x, dtype=float)
    out = np.empty((max_power + 1,) + arr.shape)
    out[0] = 1.0
    if max_power >= 1:
        out[1] = arr
    for k in range(1, max_power):
        np.multiply(arr, out[k], out=out[k + 1, ...])
    return out


@dataclass(frozen=True, eq=False)
class ChaosVector:
    """An L2(mu) element stored as one real coefficient per basis index.

    Immutable after construction; arithmetic returns new vectors. The
    coefficient at position p multiplies H_{alpha_p} in the space's table
    order. It takes a 1-d float64 array as it is and marks it read-only, so
    its maker must not write to it after; anything else is copied.
    """

    space: GaussianSpace
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        arr = self.coeffs
        if not (isinstance(arr, np.ndarray) and arr.dtype == np.float64 and arr.ndim == 1):
            arr = np.array(arr, dtype=float)
        if arr.shape != (self.space.size,):
            raise ValueError(
                f"expected {self.space.size} coefficients, got {arr.shape}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    def norm_sq(self) -> float:
        """Exact squared L2 norm: sum_alpha alpha! c_alpha^2."""
        return float(np.dot(self.space.factorials * self.coeffs, self.coeffs))

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def degree_norms_sq(self) -> np.ndarray:
        """Squared L2 mass per chaos degree, length max_degree + 1."""
        w = self.space.factorials * self.coeffs * self.coeffs
        return np.bincount(self.space.degrees, weights=w, minlength=self.space.max_degree + 1)

    def __add__(self, other: "ChaosVector") -> "ChaosVector":
        space = _require_same_space(self, other)
        return ChaosVector(space, self.coeffs + other.coeffs)

    def __sub__(self, other: "ChaosVector") -> "ChaosVector":
        space = _require_same_space(self, other)
        return ChaosVector(space, self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "ChaosVector":
        return ChaosVector(self.space, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "ChaosVector":
        return ChaosVector(self.space, -self.coeffs)


def constant_vector(space: GaussianSpace, value: float = 1.0) -> ChaosVector:
    c = np.zeros(space.size)
    c[0] = value
    return ChaosVector(space, c)


def axis_product(axis: np.ndarray, space: GaussianSpace) -> ChaosVector:
    """The product over the space's coordinates of one axis series, cut at
    total degree K: the coefficient of H_alpha is prod_i axis[alpha_i], with
    axis padded by zeros or cut to degrees 0..K."""
    padded = np.zeros(space.max_degree + 1)
    padded[: min(axis.size, padded.size)] = axis[: padded.size]
    return ChaosVector(space, np.prod(padded[space.indices], axis=1))


def basis_vector(space: GaussianSpace, entries: tuple[int, ...]) -> ChaosVector:
    c = np.zeros(space.size)
    c[space.position(entries)] = 1.0
    return ChaosVector(space, c)


def chaos_inner(f: ChaosVector, g: ChaosVector) -> float:
    """Exact inner product integral f*g dmu = sum_alpha alpha! c_alpha(f) c_alpha(g)."""
    space = _require_same_space(f, g)
    return float(np.dot(space.factorials * f.coeffs, g.coeffs))


def monomial_powers(space: GaussianSpace, h: np.ndarray) -> np.ndarray:
    """h^alpha for every table index: the monomial sums of h with weight one."""
    h = np.asarray(h, dtype=float)
    if h.shape != (space.dimension,):
        raise ValueError(f"expected vector of length {space.dimension}")
    return monomial_sums(space, h[None, :], np.ones(1))


# A one-dimensional family t: one_d(K, x) returns t_0..t_K at x, shape
# (K+1, *x.shape).
OneD = Callable[[int, np.ndarray], np.ndarray]


def _fill_plan(space: GaussianSpace) -> tuple[np.ndarray, tuple]:
    """The fill plan of a space: (pure, runs).

    pure[e, c] is the row of the pure power e * e_c, shape (K+1, d); row 0
    for e = 0. Every other row alpha is the row of alpha_c * e_c times the
    row of alpha with c zeroed, c its first nonzero coordinate. runs holds
    those multiplies in row order as (dst, factor, src), table[dst] =
    table[factor] * table[src], each over a maximal run of consecutive rows
    that share the factor row and whose zeroed rows are consecutive. dst and
    src are slices, or ints for a run of one row, a cheaper view of it.
    """
    alpha = space.indices
    coord = np.argmax(alpha > 0, axis=1)
    entry = alpha[np.arange(space.size), coord]
    powers = np.arange(space.max_degree + 1)[:, None, None]
    pure = space.positions(powers * np.eye(space.dimension, dtype=np.int64))
    # all rows but the zero row and the pure powers, whose entry is their degree
    dst = np.flatnonzero(entry < space.degrees)
    factor = pure[entry[dst], coord[dst]]
    src = space.positions(alpha[dst] - alpha[factor])
    new = np.ones(len(dst), dtype=bool)
    new[1:] = (dst[1:] != dst[:-1] + 1) | (factor[1:] != factor[:-1]) | (src[1:] != src[:-1] + 1)
    starts = np.flatnonzero(new)
    columns = (dst[starts], np.diff(np.append(starts, len(dst))), factor[starts], src[starts])
    return pure, tuple(
        (a, f, s) if n == 1 else (slice(a, a + n), f, slice(s, s + n))
        for a, n, f, s in zip(*(col.tolist() for col in columns))
    )


def _fill(one_d: OneD, x: np.ndarray, pure: np.ndarray, table: np.ndarray, bound: list) -> None:
    """Write prod_i t_{alpha_i}(x[i, j]) into table[p, j] for every index alpha_p.

    x holds one coordinate per row and one input per column. one_d is
    hermite_table or power_table; its values t_e(x[c]) are the rows pure[e, c]
    of the pure powers (see _fill_plan). Every other row follows degree by
    degree through the strip recursion T_alpha = T_{alpha_c e_c} *
    T_{alpha with c zeroed}, one broadcast multiply per run of the plan,
    bound as the views (table[factor], table[src], table[dst]); each entry
    is the same product of the same two factors as a row-by-row fill.
    """
    table[pure] = one_d(len(pure) - 1, x)
    for factor, src, dst in bound:
        np.multiply(factor, src, out=dst)


def _filler(space: GaussianSpace, one_d: OneD, columns: int) -> Callable[[np.ndarray], np.ndarray]:
    """fill(x): _fill of the table of space at the m <= columns inputs of x,
    returned as a view of a buffer that the next call overwrites.

    The table of m inputs is the C-contiguous prefix of one reused buffer,
    the layout a fresh table would have, its runs bound once per m. Fresh
    tables per chunk made evaluation on small spaces about 1.4x slower.
    """
    pure, runs = space.cached("fill_plan", _fill_plan)
    rows = space.size
    buffer = np.empty(rows * columns)
    bindings = {}

    def fill(x: np.ndarray) -> np.ndarray:
        m = x.shape[1]
        if m not in bindings:
            table = buffer[: rows * m].reshape(rows, m)
            bindings[m] = table, [(table[f], table[src], table[dst]) for dst, f, src in runs]
        table, bound = bindings[m]
        _fill(one_d, x, pure, table, bound)
        return table

    return fill


# Bytes the head, tail and partial tables of one chunk of points may take
# together: a 2 MiB per-core L2 cache, which at d = 8, K = 8 holds 234 points.
# On a 2-vCPU Xeon with that cache, chunks of 234 to 700 points evaluated that
# space equally fast and 2048 points about 25 % slower. A shift mixture's
# monomial sums take the same chunks: there 1.9 MB of table instead of 16 MB,
# and 0.039 s against 0.045 s for 10^4 atoms. Spaces of at most 128 table rows
# keep MAX_CHUNK.
TABLE_BYTES = 2 * 1024 * 1024
MAX_CHUNK = 2048


class SumSplit(NamedTuple):
    """Head/tail factorization of a space, for sum-factorized evaluation.

    Each index is alpha = (h, t) with h over the first d // 2 coordinates
    (the head) and t over the rest (the tail), so H_alpha(x) =
    H_h(x_head) H_t(x_tail). The heads of degree k, rows lo:hi of the head
    table, pair with every tail of degree <= K - k, and in graded order those
    are the first `tails` rows of the tail table; blocks holds (lo, hi, tails)
    per head degree. Laid out block by block, each block row-major, the
    coefficients of the space are coeffs[order], every one exactly once.
    For d = 1 the head is the constant (head is None, one head row) and
    the tail is the space itself.

    Evaluation contracts each block over its longer side, into min(hi - lo,
    tails) rows of a partial table of `contracted` rows. As k rises the heads
    of degree k grow in number and `tails` shrinks, so the blocks with
    hi - lo <= tails come first: over_tail holds them, never empty (degree 0
    has one head), and their rows of the partial table are head rows
    0:over_tail[-1][1]. over_head holds (lo, hi, tails, row) for the rest,
    whose partial rows are row:row + tails. chunk is the number of points per
    set of tables, from TABLE_BYTES.
    """

    head: GaussianSpace | None
    tail: GaussianSpace
    order: np.ndarray
    blocks: tuple[tuple[int, int, int], ...]
    over_tail: tuple[tuple[int, int, int], ...]
    over_head: tuple[tuple[int, int, int, int], ...]
    contracted: int
    chunk: int

    @property
    def head_rows(self) -> int:
        return 1 if self.head is None else self.head.size

    def views(self, flat: np.ndarray) -> list[np.ndarray]:
        """The blocks C_k of a vector laid out in split order (coeffs[order]),
        as views of it."""
        out, start = [], 0
        for lo, hi, tails in self.blocks:
            out.append(flat[start : start + (hi - lo) * tails].reshape(hi - lo, tails))
            start += (hi - lo) * tails
        return out


def _build_split(space: GaussianSpace) -> SumSplit:
    d, k_max = space.dimension, space.max_degree
    s = d // 2
    if s == 0:
        head, tail = None, space
    else:
        head = GaussianSpace(s, k_max)
        tail = head if 2 * s == d else GaussianSpace(d - s, k_max)
    if head is None:
        heads, head_bounds = np.zeros((1, 0), dtype=np.int64), [0] + [1] * (k_max + 1)
    else:
        heads, head_bounds = head.indices, head.degree_bounds
    blocks, order = [], []
    for k in range(k_max + 1):
        lo, hi = int(head_bounds[k]), int(head_bounds[k + 1])
        if lo == hi:
            continue
        tails = int(tail.degree_bounds[k_max - k + 1])
        alpha = np.hstack(
            (np.repeat(heads[lo:hi], tails, axis=0), np.tile(tail.indices[:tails], (hi - lo, 1)))
        )
        blocks.append((lo, hi, tails))
        order.append(space.positions(alpha))
    order = np.concatenate(order)
    order.setflags(write=False)
    over_tail = tuple(b for b in blocks if b[1] - b[0] <= b[2])
    over_head, row = [], over_tail[-1][1]
    for lo, hi, tails in blocks[len(over_tail) :]:
        over_head.append((lo, hi, tails, row))
        row += tails
    chunk = max(1, min(MAX_CHUNK, TABLE_BYTES // (8 * (len(heads) + tail.size + row))))
    return SumSplit(head, tail, order, tuple(blocks), over_tail, tuple(over_head), row, chunk)


def _split_tables(
    split: SumSplit, one_d: OneD, points
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield (start, head, tail) for each chunk of points, an array cut into
    chunks of split.chunk rows or an iterable of such chunks, all but the
    last full: the head and the tail table, shapes (head_rows, m) and (tail
    size, m); the head table of d = 1 is a row of ones.

    The tables are views of buffers sized at the first chunk and refilled
    per chunk (see _filler), valid (and free to overwrite) until the next
    yield, so a call binds views for at most two chunk lengths: the full
    chunk and the last, shorter one. A head and a tail that share a space
    (every even d) are one table of 2m columns, the head coordinates of the
    chunk followed by its tail coordinates, which halves the multiplies. The
    tables hold (head_rows + tail size) x chunk values; with eval_stacked's
    partial table of split.contracted rows, the three stay within TABLE_BYTES.
    """
    if isinstance(points, np.ndarray):
        points = [points[i : i + split.chunk] for i in range(0, len(points), split.chunk)]
    start, shared = 0, split.head is split.tail
    for block in points:
        k = len(block)
        if start == 0:  # buffers for the first chunk, the longest
            s = block.shape[1] // 2
            tail_fill = _filler(split.tail, one_d, 2 * k if shared else k)
            if split.head is None:
                ones = np.empty(k)
            elif not shared:
                head_fill = _filler(split.head, one_d, k)
        if shared:
            table = tail_fill(np.ascontiguousarray(block.reshape(k, 2, s).T).reshape(s, 2 * k))
            head, tail = table[:, :k], table[:, k:]
        else:
            x = np.ascontiguousarray(block.T)
            if split.head is None:
                head = ones[:k].reshape(1, k)
                head.fill(1.0)
            else:
                head = head_fill(x[:s])
            tail = tail_fill(x[s:])
        yield start, head, tail
        start += k


def eval_stacked(fs, points, out: np.ndarray | None = None) -> np.ndarray:
    """Evaluate sum_alpha c_alpha H_alpha for several vectors of one space.

    Returns shape (len(fs), n) for n points: an (n, d) array, or an iterator
    of chunks as _split_tables takes them, drawn only as they are evaluated,
    which needs out, the (len(fs), n) array to fill. The full basis table is
    never formed (sum factorization, Orszag 1980): per chunk of points
    one head and one tail table are filled for all vectors together (see
    SumSplit), and each vector is contracted on its own. For its coefficient
    block C_k, a block with no more heads than tails gives R = C_k @
    T_tail[:tails] times T_head[lo:hi], any other S = C_k^T @ T_head[lo:hi]
    times T_tail[:tails]; values = the sum over the partial table of these
    rows. Row i therefore does not depend on the other vectors. Memory is
    bounded by the head, tail and partial tables, (head_rows + tail size +
    contracted) x chunk values, about TABLE_BYTES, besides out.
    """
    if not fs:
        raise ValueError("need at least one vector to evaluate")
    for g in fs[1:]:
        _require_same_space(fs[0], g)
    space = fs[0].space
    if not isinstance(points, Iterator):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[1] != space.dimension:
            raise ValueError(f"points have dimension {points.shape[1]}, expected {space.dimension}")
    out = np.empty((len(fs), len(points))) if out is None else out
    split = space.split()
    n, heads = len(split.over_tail), split.over_tail[-1][1]
    coeff_blocks = []
    for g in fs:
        cs = split.views(g.coeffs[split.order])
        coeff_blocks.append((cs[:n], [c.T for c in cs[n:]]))
    buffer = np.empty(split.contracted * min(split.chunk, out.shape[1]))
    for start, head, tail in _split_tables(split, hermite_table, points):
        m = head.shape[1]
        partial = buffer[: split.contracted * m].reshape(-1, m)
        for values, (over_tail, over_head) in zip(out, coeff_blocks):
            for c, (lo, hi, tails) in zip(over_tail, split.over_tail):
                np.matmul(c, tail[:tails], out=partial[lo:hi])
            partial[:heads] *= head[:heads]
            for ct, (lo, hi, tails, row) in zip(over_head, split.over_head):
                rows = partial[row : row + tails]
                np.matmul(ct, head[lo:hi], out=rows)
                rows *= tail[:tails]
            values[start : start + m] = partial.sum(axis=0)
    return out


def eval_products(axes, space: GaussianSpace, points, out: np.ndarray | None = None) -> np.ndarray:
    """Evaluate axis_product(a, space) for each row a of axes, never forming it.

    Points are an (n, d) array or an iterator of chunks as eval_stacked takes
    them, which needs out. Returns the values of the V rows, or writes the
    first V - 1 minus the last to an out of V - 1 rows. Each block C_k of SumSplit is rank one, a_head[lo:hi]
    (x) a_tail[:tails] for the axis products onto split.head and split.tail,
    so a value is the sum over head degrees k of H_k L_{K-k}, with H_k =
    a_head[:, lo:hi] @ T_head[lo:hi] and L_m = a_tail @ T_tail summed over
    tail degrees up to m. A chunk holds three (V, chunk) arrays and tables.
    """
    split, count = space.split(), len(axes)
    a_head, a_tail = (
        np.array([axis_product(a, part).coeffs for a in axes]) if part else np.ones((count, 1))
        for part in (split.head, split.tail)
    )
    out = np.empty((count, len(points))) if out is None else out
    buffers = np.empty((3, count * min(split.chunk, out.shape[1])))
    for start, head, tail in _split_tables(split, hermite_table, points):
        m = head.shape[1]
        acc, run, term = (b[: count * m].reshape(count, m) for b in buffers)
        acc[...] = run[...] = done = 0
        for lo, hi, tails in reversed(split.blocks):  # tails grow as k falls
            run += np.matmul(a_tail[:, done:tails], tail[done:tails], out=term)
            acc += np.multiply(np.matmul(a_head[:, lo:hi], head[lo:hi], out=term), run, out=term)
            done = tails
        out[:, start : start + m] = acc if len(out) == count else acc[:-1] - acc[-1]
    return out


def eval_many(f: ChaosVector, points: np.ndarray) -> np.ndarray:
    """Evaluate sum_alpha c_alpha H_alpha at each row of `points`."""
    return eval_stacked([f], points)[0]


def eval_at(f: ChaosVector, w) -> float:
    """Pointwise value of the chaos expansion at a single point."""
    w = np.asarray(w, dtype=float).reshape(-1)
    if w.shape != (f.space.dimension,):
        raise ValueError(f"point has dimension {w.size}, expected {f.space.dimension}")
    return float(eval_many(f, w[None, :])[0])


def monomial_sums(space: GaussianSpace, points: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_j weights[j] * points[j]^alpha for every table index alpha.

    Per chunk of split.chunk points one head and one tail table of powers
    are filled (see SumSplit), and each block of sums accumulates
    (T_head[heads of degree k] * weights) @ T_tail[:tails].T.
    """
    split = space.split()
    flat = np.zeros(space.size)
    sums = split.views(flat)
    for start, head, tail in _split_tables(split, power_table, points):
        head *= weights[start : start + head.shape[1]]
        for acc, (lo, hi, tails) in zip(sums, split.blocks):
            acc += head[lo:hi] @ tail[:tails].T
    out = np.empty(space.size)
    out[split.order] = flat
    return out


@dataclass(frozen=True)
class KernelView:
    """First- and second-order kernels of a density plus the excess kernel.

    mean[i] = c_{e_i}; kernel2[i][i] = c_{2 e_i}, kernel2[i][j] = c_{e_i+e_j}/2
    for i != j; g2 = kernel2 - outer(mean, mean)/2. Both matrices are built
    symmetric entry by entry, never symmetrized after the fact.
    """

    mean: np.ndarray
    kernel2: np.ndarray
    g2: np.ndarray

    def __post_init__(self) -> None:
        for name in ("mean", "kernel2", "g2"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _low_positions(space: GaussianSpace) -> tuple[np.ndarray, np.ndarray]:
    """Positions of e_i (length d) and of e_i + e_j (d x d, symmetric)."""
    p1 = space.positions(np.eye(space.dimension, dtype=np.int64))
    return p1, space.positions_of_sums(p1, p1)


def kernel_view(f: ChaosVector) -> KernelView:
    """Extract (f1, f2, G) from the degree-1 and degree-2 coefficients."""
    space = f.space
    if space.max_degree < 2:
        raise InsufficientDegreeError(
            "insufficient degree: kernel extraction needs max_degree >= 2"
        )
    p1, p2 = _low_positions(space)
    mean = f.coeffs[p1]
    kernel2 = 0.5 * f.coeffs[p2]
    np.fill_diagonal(kernel2, f.coeffs[p2.diagonal()])
    g2 = kernel2 - 0.5 * np.outer(mean, mean)
    return KernelView(mean=mean, kernel2=kernel2, g2=g2)


def from_kernel_view(
    space: GaussianSpace,
    mean: np.ndarray,
    kernel2: np.ndarray,
    constant: float = 1.0,
) -> ChaosVector:
    """Build the vector with given constant, degree-1 and degree-2 kernels."""
    if space.max_degree < 2:
        raise InsufficientDegreeError(
            "insufficient degree: kernel placement needs max_degree >= 2"
        )
    d = space.dimension
    mean = np.asarray(mean, dtype=float)
    kernel2 = np.asarray(kernel2, dtype=float)
    if mean.shape != (d,) or kernel2.shape != (d, d):
        raise ValueError("kernel shapes do not match the space dimension")
    if not np.array_equal(kernel2, kernel2.T):
        raise ValueError("second-order kernel must be exactly symmetric")
    p1, p2 = _low_positions(space)
    upper = np.triu_indices(d, 1)
    c = np.zeros(space.size)
    c[0] = constant
    c[p1] = mean
    c[p2.diagonal()] = kernel2.diagonal()
    c[p2[upper]] = 2.0 * kernel2[upper]
    return ChaosVector(space, c)


def extract_mean(f: ChaosVector) -> np.ndarray:
    """Degree-1 coefficients as a vector (the first chaos kernel)."""
    space = f.space
    if space.max_degree < 1:
        return np.zeros(space.dimension)
    return f.coeffs[space.positions(np.eye(space.dimension, dtype=np.int64))]
