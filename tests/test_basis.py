import json
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wickllt.basis as basis
from wickllt.basis import (
    BasisTooLargeError,
    ChaosVector,
    GaussianSpace,
    IncompatibleBasisError,
    InsufficientDegreeError,
    axis_product,
    basis_vector,
    chaos_inner,
    enumerate_indices,
    eval_at,
    eval_many,
    eval_products,
    eval_stacked,
    from_kernel_view,
    hermite_eval,
    hermite_table,
    kernel_view,
    monomial_powers,
    power_table,
)
from wickllt.quadrature import tensor_rule
from wickllt.serialize import chaos_to_json
from wickllt.wick import stochastic_exponential

from conftest import random_low_degree, unit_density


def reference_indices(dimension, max_degree):
    """The graded table by the former recursion: one more coordinate in front
    prepends each head from n down to 0 to the indices of degree n."""
    exact = [np.full((1, 1), n, dtype=np.int64) for n in range(max_degree + 1)]
    for _ in range(dimension - 1):
        exact = [
            np.vstack(
                [
                    np.hstack((np.full((len(exact[n - head]), 1), head), exact[n - head]))
                    for head in range(n, -1, -1)
                ]
            )
            for n in range(max_degree + 1)
        ]
    return np.vstack(exact)


class TestEnumeration:
    @pytest.mark.parametrize(
        "dimension, degree",
        [(1, 0), (1, 170), (2, 16), (3, 4), (4, 8), (5, 14), (8, 8), (13, 3), (40, 2), (256, 1)],
    )
    def test_matches_the_recursion(self, dimension, degree):
        assert np.array_equal(
            enumerate_indices(dimension, degree), reference_indices(dimension, degree)
        )

    def test_line_degree_three(self):
        table = enumerate_indices(1, 3)
        assert table.tolist() == [[0], [1], [2], [3]]

    def test_plane_degree_one(self):
        table = enumerate_indices(2, 1)
        assert table.tolist() == [[0, 0], [1, 0], [0, 1]]

    def test_card_matches_binomial(self):
        # independent count: binom(d + K, K)
        table = enumerate_indices(8, 8)
        assert len(table) == math.comb(16, 8) == 12870

    def test_graded_then_ordered_within_degree(self):
        table = enumerate_indices(3, 4)
        degrees = table.sum(axis=1).tolist()
        assert degrees == sorted(degrees)
        # no duplicates, every index accounted for
        assert len({tuple(row) for row in table}) == math.comb(7, 4)

    def test_degree_bounds_delimit_each_degree(self):
        # binom(d + m - 1, d) indices have degree below m
        space = GaussianSpace(3, 4)
        assert space.degree_bounds.tolist() == [math.comb(2 + m, 3) for m in range(6)]
        for m in range(5):
            rows = space.degrees[space.degree_bounds[m] : space.degree_bounds[m + 1]]
            assert rows.size and (rows == m).all()

    def test_rejects_zero_dimension(self):
        with pytest.raises(ValueError):
            enumerate_indices(0, 3)

    def test_rejects_dimension_above_the_ceiling(self):
        assert len(enumerate_indices(256, 0)) == 1
        with pytest.raises(ValueError, match=r"dimension must lie in \[1, 256\], got 257"):
            GaussianSpace(257, 0)

    def test_rejects_degree_whose_factorial_overflows(self):
        assert len(enumerate_indices(1, 170)) == 171
        with pytest.raises(ValueError, match="at most 170"):
            GaussianSpace(1, 171)

    def test_rejects_oversized_table(self):
        with pytest.raises(BasisTooLargeError, match="basis too large"):
            enumerate_indices(8, 8, size_cap=1000)

    def test_rejects_table_with_too_many_entries(self):
        # 1,373,701 rows pass the row cap, but the table would hold 2.2 GB
        with pytest.raises(BasisTooLargeError, match="274740200 table entries"):
            enumerate_indices(200, 3)


# (d, K) pairs for the index core; (40, 2) has too many coordinates for a
# mixed-radix key of base K + 1 to fit in 64 bits.
CORE_SHAPES = [(1, 16), (2, 8), (4, 6), (8, 8), (5, 14), (40, 2)]


class TestIndexCore:
    @pytest.mark.parametrize("d, k", CORE_SHAPES)
    def test_rank_inverts_table(self, d, k):
        space = GaussianSpace(d, k)
        assert np.array_equal(space.positions(space.indices), np.arange(space.size))
        for p, alpha in enumerate(space.indices):
            assert space.position(alpha) == p

    @pytest.mark.parametrize("d, k", CORE_SHAPES)
    def test_plan_columns(self, d, k):
        # row e e_c of the pure powers is pure[e, c]; every other row is
        # written once, as the row of alpha_c e_c times the row of alpha
        # with its first nonzero coordinate c zeroed
        space = GaussianSpace(d, k)
        pure, runs = basis._fill_plan(space)
        assert pure.shape == (k + 1, d)
        for e in range(k + 1):
            for c in range(d):
                assert space.indices[pure[e, c]].tolist() == [e * (i == c) for i in range(d)]
        written = {}
        for dst, factor, src in runs:
            for p, q in zip(rows_of(space, dst), rows_of(space, src)):
                assert p not in written
                written[p] = (factor, q)
        for p, (c, e, zeroed) in enumerate(strip_columns(space), start=1):
            if zeroed == 0:
                assert p not in written and pure[e, c] == p
            else:
                assert written[p] == (pure[e, c], zeroed)
        assert len(written) + len(set(pure.ravel().tolist())) == space.size

    @pytest.mark.parametrize(
        "entries, reason",
        [((1, 2, 0), "has length 3"), ((-1, 2), "negative entry"), ((5, 4), "has degree 9")],
    )
    def test_rank_rejects_outside_index(self, plane8, entries, reason):
        with pytest.raises(ValueError, match=rf"{reason}.*\(d=2, K=8\)"):
            plane8.position(entries)

    def test_release_drops_a_cached_structure(self):
        space = GaussianSpace(1, 2)
        built = []

        def build(sp):
            built.append(sp)
            return len(built)

        assert space.cached("x", build) == space.cached("x", build) == 1
        space.release("x")
        space.release("x")  # releasing what is not cached is a no-op
        assert space.cached("x", build) == 2

    def test_builder_may_call_cached(self):
        # a builder that reads another cached structure of the same space
        # must not wait on the cache lock it already holds
        space = GaussianSpace(1, 2)
        result = []
        worker = threading.Thread(
            target=lambda: result.append(
                space.cached("outer", lambda sp: sp.cached("inner", lambda _: 1))
            ),
            daemon=True,
        )
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive() and result == [1]


class TestMonomialPowers:
    @pytest.mark.parametrize("d, k", [(1, 16), (2, 8), (8, 8)])
    def test_matches_product_reference(self, d, k):
        space = GaussianSpace(d, k)
        h = np.random.default_rng(d).uniform(-1.5, 1.5, d)
        expected = np.array(
            [math.prod(float(x) ** int(a) for x, a in zip(h, alpha)) for alpha in space.indices]
        )
        got = monomial_powers(space, h)
        assert np.all(np.abs(got - expected) <= 1e-15 * np.abs(expected))


class TestHermite:
    def test_he2_at_one(self):
        assert hermite_eval(2, 1.0) == 0.0

    def test_he0_constant(self):
        assert hermite_eval(0, 7.3) == 1.0

    def test_he3_by_hand(self):
        # He3(x) = x^3 - 3x, so He3(2) = 2
        assert hermite_eval(3, 2.0) == pytest.approx(2.0, abs=1e-14)

    @given(
        n=st.integers(min_value=0, max_value=12),
        x=st.floats(min_value=-5, max_value=5, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_numpy_hermite_e(self, n, x):
        coeffs = [0.0] * n + [1.0]
        expected = np.polynomial.hermite_e.hermeval(x, coeffs)
        assert hermite_eval(n, x) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_table_of_a_scalar(self):
        # He_0..He_3 at 0.5: 1, x, x^2 - 1, x^3 - 3x
        table = hermite_table(3, 0.5)
        assert table.shape == (4,) and table.tolist() == [1.0, 0.5, -0.75, -1.375]
        for x in (0.5, np.float64(0.5), np.array(0.5)):
            assert type(hermite_eval(3, x)) is float and hermite_eval(3, x) == -1.375

    def test_matches_three_term_loop_bit_for_bit(self):
        # reference: He_{k+1} = x He_k - k He_{k-1}, one order at a time
        x = 3.0 * np.random.default_rng(40).standard_normal(10_000)
        prev, cur = np.ones_like(x), x.copy()
        assert np.array_equal(hermite_eval(0, x), prev)
        for n in range(1, 40):
            assert np.array_equal(hermite_eval(n, x), cur)
            assert hermite_eval(n, float(x[n])) == cur[n]
            prev, cur = cur, x * cur - n * prev


class TestPowerTable:
    @pytest.mark.parametrize("shape", [(300,), (4, 300)])
    def test_is_the_repeated_product(self, shape):
        # row k is bit for bit the loop p_k = x * p_{k-1} from p_0 = 1, and
        # within k rounding steps of np.power
        x = 1.7 * np.random.default_rng(len(shape)).standard_normal(shape)
        table = power_table(12, x)
        assert table.shape == (13,) + shape
        p = np.ones(shape)
        for k, row in enumerate(table):
            assert np.array_equal(row, p)
            assert np.all(np.abs(row - np.power(x, k)) <= k * 2.0**-52 * np.abs(x) ** k)
            p = x * p

    def test_scalar(self):
        assert power_table(3, -0.5).tolist() == [1.0, -0.5, 0.25, -0.125]


class TestChaosVector:
    def test_takes_a_float64_vector_and_copies_anything_else(self, line16):
        owned = np.zeros(line16.size)
        f = ChaosVector(line16, owned)
        assert f.coeffs is owned and not owned.flags.writeable
        for given in (np.zeros(17, dtype=np.float32), np.zeros(17, dtype=np.int64), [0.0] * 17):
            g = ChaosVector(line16, given)
            assert g.coeffs is not given and not g.coeffs.flags.writeable
            assert g.coeffs.dtype == np.float64 and g.coeffs.shape == (line16.size,)
            if isinstance(given, np.ndarray):
                assert given.flags.writeable

    def test_axis_product(self):
        # prod_i axis[alpha_i], with the axis cut or padded to degrees 0..K
        axis = np.array([1.0, 0.5, 0.25, 0.125, 2.0])
        space = GaussianSpace(3, 3)
        f = axis_product(axis, space)
        for p, index in enumerate(space.indices):
            assert f.coeffs[p] == np.prod([axis[a] for a in index])
        line = GaussianSpace(1, 6)
        assert axis_product(axis, line).coeffs.tolist() == axis.tolist() + [0.0, 0.0]


class TestInnerProduct:
    def test_basis_self_inner_is_factorial(self, line16):
        f = basis_vector(line16, (2,))
        assert chaos_inner(f, f) == pytest.approx(2.0, abs=0)

    def test_inner_with_unit_reads_constant(self, line16):
        rng = np.random.default_rng(0)
        f = random_low_degree(line16, rng, max_degree=6)
        assert chaos_inner(f, unit_density(line16)) == pytest.approx(f.coeffs[0])

    def test_exponential_norm(self, line20):
        f = stochastic_exponential([0.5], line20)
        assert chaos_inner(f, f) == pytest.approx(math.exp(0.25), rel=1e-12)

    def test_orthogonality_exhaustive(self):
        # alpha! on the diagonal, zero elsewhere, across the whole table
        space = GaussianSpace(3, 6)
        for p in range(space.size):
            f = basis_vector(space, space.indices[p])
            for q in range(p, space.size):
                g = basis_vector(space, space.indices[q])
                expected = space.factorials[p] if p == q else 0.0
                assert abs(chaos_inner(f, g) - expected) <= 1e-10

    def test_quadrature_consistency(self, plane8):
        # product of degree <= 8 vectors has degree <= 16; 9 nodes are exact
        rng = np.random.default_rng(7)
        f = random_low_degree(plane8, rng, max_degree=8)
        g = random_low_degree(plane8, rng, max_degree=8)
        pts, wts = tensor_rule(2, 9)
        integral = float(np.dot(wts, eval_many(f, pts) * eval_many(g, pts)))
        assert integral == pytest.approx(chaos_inner(f, g), rel=1e-10, abs=1e-12)

    def test_parseval_against_quadrature(self, plane8):
        rng = np.random.default_rng(8)
        f = random_low_degree(plane8, rng, max_degree=8)
        pts, wts = tensor_rule(2, 9)
        vals = eval_many(f, pts)
        assert float(np.dot(wts, vals * vals)) == pytest.approx(f.norm_sq(), rel=1e-10)

    def test_incompatible_spaces_rejected(self, line16, plane8):
        with pytest.raises(IncompatibleBasisError, match="incompatible bases"):
            chaos_inner(unit_density(line16), unit_density(plane8))


class TestEvaluation:
    def test_constant(self, line16):
        assert eval_at(unit_density(line16), [1.7]) == 1.0

    def test_product_basis_point(self, plane8):
        f = basis_vector(plane8, (1, 1))
        assert eval_at(f, [2.0, 3.0]) == pytest.approx(6.0)

    def test_exponential_closed_form(self, line20):
        f = stochastic_exponential([0.3], line20)
        assert eval_at(f, [1.0]) == pytest.approx(math.exp(0.255), rel=1e-10)

    def test_eval_many_matches_eval_at(self, plane8):
        rng = np.random.default_rng(3)
        f = random_low_degree(plane8, rng, max_degree=8)
        pts = rng.standard_normal((40, 2))
        vals = eval_many(f, pts)
        for i in range(0, 40, 7):
            assert vals[i] == pytest.approx(eval_at(f, pts[i]), rel=1e-12)

    def test_dimension_mismatch(self, plane8):
        with pytest.raises(ValueError):
            eval_at(unit_density(plane8), [1.0])


def strip_columns(space):
    """Per row p > 0: the first nonzero coordinate c of alpha_p, alpha_c, and
    the row of alpha_p with c zeroed, found by a search of space.indices."""
    table = space.indices.tolist()
    rows = {tuple(alpha): p for p, alpha in enumerate(table)}
    columns = []
    for alpha in table[1:]:
        c = next(i for i, e in enumerate(alpha) if e > 0)
        columns.append((c, alpha[c], rows[tuple(alpha[:c] + [0] + alpha[c + 1 :])]))
    return columns


def rows_of(space, rows):
    """The rows an int or a slice of a fill run indexes."""
    return range(space.size)[rows] if isinstance(rows, slice) else range(rows, rows + 1)


def reference_eval(f, pts, chunk=2048):
    """Loop reference: a fresh full basis table per chunk, one GEMV per chunk.

    Returns the values and |c| @ |T| per point, the scale of the rounding
    error of any order of summing the terms c_alpha H_alpha.
    """
    space = f.space
    columns = strip_columns(space)
    out = np.empty(len(pts))
    scale = np.empty(len(pts))
    for start in range(0, len(pts), chunk):
        block = pts[start : start + chunk]
        vals = np.empty((space.size, len(block)))
        vals[0] = 1.0
        for p, (c, e, rest) in enumerate(columns, start=1):
            vals[p] = hermite_eval(e, block[:, c]) * vals[rest]
        out[start : start + len(block)] = f.coeffs @ vals
        scale[start : start + len(block)] = np.abs(f.coeffs) @ np.abs(vals)
    return out, scale


def reference_fill(space, one_d, block):
    """Row-by-row reference of a table fill: one multiply per index."""
    tabs = [one_d(space.max_degree, block[:, i]) for i in range(space.dimension)]
    table = np.empty((space.size, len(block)))
    table[0] = 1.0
    for p, (c, e, rest) in enumerate(strip_columns(space), start=1):
        table[p] = tabs[c][e] * table[rest]
    return table


class TestTableFill:
    @pytest.mark.parametrize("one_d", [hermite_table, power_table])
    @pytest.mark.parametrize("degree", [0, 1, 4, 8])
    @pytest.mark.parametrize("dimension", [1, 2, 3, 5, 8])
    def test_runs_fill_bit_for_bit(self, dimension, degree, one_d):
        # every entry is the product of the same two factors as row by row,
        # over the head and tail tables of two chunks and the full space
        space = GaussianSpace(dimension, degree)
        split = space.split()
        rng = np.random.default_rng(10 * dimension + degree)
        pts = 1.5 * rng.standard_normal((split.chunk + 3, dimension))
        s = dimension // 2
        starts = []
        for start, head, tail in basis._split_tables(split, one_d, pts):
            block = pts[start : start + tail.shape[1]]
            starts.append(start)
            assert np.array_equal(tail, reference_fill(split.tail, one_d, block[:, s:]))
            if split.head is not None:
                assert np.array_equal(head, reference_fill(split.head, one_d, block[:, :s]))
        assert starts == [0, split.chunk]
        table = basis._filler(space, one_d, 5)(np.ascontiguousarray(pts[:5].T))
        assert np.array_equal(table, reference_fill(space, one_d, pts[:5]))

    @pytest.mark.parametrize("one_d", [hermite_table, power_table])
    @pytest.mark.parametrize("dimension", [1, 2, 3, 8])
    def test_pure_power_rows_are_the_one_d_values(self, dimension, one_d):
        # row e e_c holds t_e(x_c) bit for bit, as one_d gives it for the
        # coordinate alone
        space = GaussianSpace(dimension, 8)
        pure, _ = basis._fill_plan(space)
        x = 1.5 * np.random.default_rng(dimension).standard_normal((dimension, 300))
        table = basis._filler(space, one_d, 300)(x)
        for c in range(dimension):
            assert np.array_equal(table[pure[:, c]], one_d(8, x[c]))

    @pytest.mark.parametrize("dimension, degree", [(1, 8), (2, 8), (3, 6), (8, 4)])
    def test_calls_of_other_lengths_bind_their_own_views(self, dimension, degree):
        # a call with a short last chunk, then one of a single point, on one
        # space: each evaluates its own points, none reads a stale table
        space = GaussianSpace(dimension, degree)
        chunk = space.split().chunk
        rng = np.random.default_rng(dimension)
        fs = [ChaosVector(space, rng.standard_normal(space.size)) for _ in range(2)]
        pts = rng.standard_normal((chunk + 3, dimension))
        both = eval_stacked(fs, pts)
        single = eval_stacked(fs, pts[1:2])
        assert np.array_equal(both[:, :chunk], eval_stacked(fs, pts[:chunk]))
        assert np.array_equal(both[:, chunk:], eval_stacked(fs, pts[chunk:]))
        for f, row, one in zip(fs, both, single):
            ref, scale = reference_eval(f, pts)
            assert np.all(np.abs(row - ref) <= 1e-12 * scale)
            assert abs(one[0] - ref[1]) <= 1e-12 * scale[1]

    @pytest.mark.parametrize("dimension, degree", [(1, 0), (1, 8), (2, 8), (4, 8), (5, 14)])
    def test_runs_tile_the_plan(self, dimension, degree):
        # runs cover the rows that are not pure powers in order, each once,
        # and read only rows of lower degree
        space = GaussianSpace(dimension, degree)
        pure, runs = basis._fill_plan(space)
        pure_rows = set(pure.ravel().tolist())
        expected = [p for p in range(space.size) if p not in pure_rows]
        written = []
        for dst, factor, src in runs:
            dst, src = rows_of(space, dst), rows_of(space, src)
            assert len(src) == len(dst)
            assert factor in pure_rows
            lowest = space.degree_bounds[space.degrees[dst.start]]
            assert src.stop <= lowest and factor < lowest
            written.extend(dst)
        assert written == expected
        if (dimension, degree) == (4, 8):
            # besides the zero row and the 32 pure powers, 462 rows in 84 runs
            assert len(written) == 462 and len(runs) == 84


class TestStackedEvaluation:
    @pytest.mark.parametrize("count", [1, 2047, 2049, 20_000])
    def test_rows_equal_eval_many_bit_for_bit(self, plane8, count):
        rng = np.random.default_rng(count)
        fs = [ChaosVector(plane8, rng.standard_normal(plane8.size)) for _ in range(3)]
        pts = rng.standard_normal((count, 2))
        stacked = eval_stacked(fs, pts)
        assert stacked.shape == (3, count)
        for f, row in zip(fs, stacked):
            single = eval_many(f, pts)
            assert np.array_equal(row, single)
            # the head/tail factorization sums in another order than the
            # full-table GEMV, so it agrees to a forward-error bound
            ref, scale = reference_eval(f, pts)
            assert np.all(np.abs(single - ref) <= 1e-12 * scale)

    @pytest.mark.parametrize("count", [1, 2047, 2049])
    @pytest.mark.parametrize("dimension, degree", [(1, 16), (2, 8), (3, 6), (5, 5), (8, 4)])
    def test_split_matches_full_table(self, dimension, degree, count):
        # odd d gives an unbalanced split: a head of d // 2 coordinates
        space = GaussianSpace(dimension, degree)
        rng = np.random.default_rng(100 * dimension + count)
        fs = [ChaosVector(space, rng.standard_normal(space.size)) for _ in range(2)]
        pts = rng.standard_normal((count, dimension))
        for f, row in zip(fs, eval_stacked(fs, pts)):
            ref, scale = reference_eval(f, pts)
            assert np.all(np.abs(row - ref) <= 1e-12 * scale)
            if dimension == 1:
                # the head is the constant: one block, the full 1-D table
                assert np.array_equal(row, ref)

    def test_split_covers_every_coefficient_once(self):
        for dimension, degree in [(1, 6), (2, 5), (3, 4), (5, 3), (8, 2), (4, 0)]:
            space = GaussianSpace(dimension, degree)
            split = space.split()
            assert sorted(split.order.tolist()) == list(range(space.size))
            assert split.blocks[0][0] == 0 and split.blocks[-1][1] == split.head_rows
            for (lo, hi, tails), (lo2, _, _) in zip(split.blocks, split.blocks[1:]):
                assert hi == lo2
            assert sum((hi - lo) * tails for lo, hi, tails in split.blocks) == space.size
            # each block contracts over its longer side, into min(hi - lo,
            # tails) consecutive rows of the partial table
            over_tail, over_head = split.over_tail, split.over_head
            assert over_tail + tuple(b[:3] for b in over_head) == split.blocks
            assert all(hi - lo <= tails for lo, hi, tails in over_tail)
            assert all(hi - lo > tails for lo, hi, tails, _ in over_head)
            row = over_tail[-1][1]
            for _, _, tails, start in over_head:
                assert start == row
                row += tails
            assert row == split.contracted

    def test_tables_stay_small_at_d8(self, monkeypatch):
        # No fill has more rows than the tail space, binom(d - d//2 + K, K),
        # and the fills per chunk do not depend on the number of vectors.
        from wickllt.measures import WeightedShifts, shift_mixture

        space = GaussianSpace(8, 8)
        limit = math.comb(8 - 8 // 2 + 8, 8)
        fills = []
        real = basis._fill

        def counting(one_d, x, pure, table, bound):
            fills.append(table.shape)
            real(one_d, x, pure, table, bound)

        monkeypatch.setattr(basis, "_fill", counting)
        rng = np.random.default_rng(8)
        pts = rng.standard_normal((3000, 8))
        chunk = space.split().chunk
        per_count = []
        for count in (1, 4):
            fills.clear()
            fs = [ChaosVector(space, rng.standard_normal(space.size)) for _ in range(count)]
            eval_stacked(fs, pts)
            per_count.append(len(fills))
            assert max(rows for rows, _ in fills) <= limit < space.size
        # the head and the tail share a space at d = 8: one table of a chunk's
        # head and tail columns for each chunk of the split's size
        chunks = math.ceil(3000 / chunk)
        assert per_count == [chunks, chunks]
        assert [columns for _, columns in fills] == [2 * chunk] * (chunks - 1) + [
            2 * (3000 - (chunks - 1) * chunk)
        ]
        fills.clear()
        # the monomial sums of a shift mixture take chunks of the same size
        shift_mixture(WeightedShifts(np.full(3000, 1 / 3000), 0.1 * pts), space)
        assert fills == [(limit, 2 * chunk)] * (chunks - 1) + [
            (limit, 2 * (3000 - (chunks - 1) * chunk))
        ]

    def test_d8_contracts_over_the_longer_side_within_the_budget(self):
        space = GaussianSpace(8, 8)
        split = space.split()
        # the heads of degree 5..8 outnumber their tails (56 > 35, ...,
        # 165 > 1) and follow the 70 head rows of degrees 0..4
        assert split.over_head == (
            (70, 126, 35, 70), (126, 210, 15, 105), (210, 330, 5, 120), (330, 495, 1, 125)
        )
        assert split.contracted == sum(min(hi - lo, t) for lo, hi, t in split.blocks) == 126
        rows = split.head_rows + split.tail.size + split.contracted
        assert rows * 8 * split.chunk <= basis.TABLE_BYTES < rows * 8 * (split.chunk + 1)
        rng = np.random.default_rng(88)
        fs = [ChaosVector(space, rng.standard_normal(space.size)) for _ in range(2)]
        pts = 0.7 * rng.standard_normal((split.chunk + 2, 8))
        for f, row in zip(fs, eval_stacked(fs, pts)):
            ref, scale = reference_eval(f, pts, chunk=64)
            assert np.all(np.abs(row - ref) <= 1e-12 * scale)

    @pytest.mark.parametrize(
        "dimension, degree", [(2, 8), (1, 12), (1, 14), (1, 16), (2, 12), (4, 8), (2, 16)]
    )
    def test_small_spaces_keep_full_chunks(self, dimension, degree):
        # the spaces of the shipped configs other than sde_sin_d8, at most 495
        # functions each
        space = GaussianSpace(dimension, degree)
        assert space.size <= 495 and space.split().chunk == basis.MAX_CHUNK == 2048

    def test_rejects_mixed_spaces(self, line16, plane8):
        with pytest.raises(IncompatibleBasisError):
            eval_stacked([unit_density(plane8), unit_density(line16)], np.zeros((1, 2)))


class TestProductEvaluation:
    """eval_products evaluates axis_product(a, space) for each axis series a
    without forming it; eval_stacked on the formed vectors is the reference."""

    @pytest.mark.parametrize("dimension, degree", [(1, 8), (2, 8), (3, 7), (4, 8), (5, 14)])
    def test_matches_the_formed_products(self, dimension, degree):
        space = GaussianSpace(dimension, degree)
        chunk = space.split().chunk
        rng = np.random.default_rng(10 * dimension + degree)
        # axis series shorter and longer than K + 1 are padded and cut
        axes = 0.4 * rng.standard_normal((4, degree + 1))
        axes[:, 0] = 1.0
        short, long = axes[:, :3], np.hstack((axes, rng.standard_normal((4, 2))))
        for count in (1, chunk - 1, chunk + 1):
            pts = rng.standard_normal((count, dimension))
            for series in (axes, short, long):
                want = eval_stacked([axis_product(a, space) for a in series], pts)
                tol = 1e-13 * np.abs(want).max()
                got = eval_products(series, space, pts)
                assert got.shape == want.shape and np.abs(got - want).max() <= tol
                # an iterator of chunks fills out; V - 1 rows get the differences
                chunks = iter([pts[i : i + chunk] for i in range(0, count, chunk)])
                diffs = eval_products(series, space, chunks, out=np.empty((3, count)))
                assert np.abs(diffs - (want[:-1] - want[-1])).max() <= 2 * tol

    def test_never_forms_a_d_space_vector(self, monkeypatch):
        # only the head and the tail spaces get axis products
        space = GaussianSpace(5, 14)
        split = space.split()
        seen = []
        real = basis.axis_product

        def recording(axis, part):
            seen.append(part)
            return real(axis, part)

        monkeypatch.setattr(basis, "axis_product", recording)
        eval_products(np.ones((3, 15)), space, np.zeros((4, 5)))
        assert seen == [split.head] * 3 + [split.tail] * 3


class TestKernelView:
    def test_unit_density_view_is_zero(self, plane8):
        view = kernel_view(unit_density(plane8))
        assert np.all(view.mean == 0) and np.all(view.kernel2 == 0) and np.all(view.g2 == 0)

    def test_exponential_view(self, line16):
        f = stochastic_exponential([0.4], line16)
        view = kernel_view(f)
        assert view.mean[0] == pytest.approx(0.4)
        assert view.kernel2[0, 0] == pytest.approx(0.08)
        assert view.g2[0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_pure_quadratic_view(self, line16):
        c = np.zeros(line16.size)
        c[0] = 1.0
        c[line16.position((2,))] = 0.1
        view = kernel_view(ChaosVector(line16, c))
        assert view.mean[0] == 0.0
        assert view.kernel2[0, 0] == pytest.approx(0.1)
        assert view.g2[0, 0] == pytest.approx(0.1)

    def test_round_trip(self, plane8):
        rng = np.random.default_rng(5)
        mean = rng.standard_normal(2)
        raw = rng.standard_normal((2, 2))
        kernel2 = 0.5 * (raw + raw.T)
        f = from_kernel_view(plane8, mean, kernel2)
        view = kernel_view(f)
        rebuilt = from_kernel_view(plane8, view.mean, view.kernel2)
        assert np.array_equal(f.coeffs, rebuilt.coeffs)
        assert np.allclose(view.mean, mean, atol=0)
        assert np.allclose(view.kernel2, kernel2, atol=0)

    @pytest.mark.parametrize("lower", [0.030000001, 0.03 + 2**-57])
    def test_placement_refuses_any_asymmetry(self, lower):
        # the placed vector keeps only the upper triangle, so a lower entry
        # that differs in the last bit would be dropped without a word
        with pytest.raises(ValueError, match="exactly symmetric"):
            from_kernel_view(GaussianSpace(2, 4), np.zeros(2), [[0.1, 0.03], [lower, 0.06]])

    def test_off_diagonal_symmetric_by_construction(self, plane8):
        c = np.zeros(plane8.size)
        c[0] = 1.0
        c[plane8.position((1, 1))] = 0.3
        view = kernel_view(ChaosVector(plane8, c))
        assert view.kernel2[0, 1] == view.kernel2[1, 0] == pytest.approx(0.15)

    def test_insufficient_degree(self):
        space = GaussianSpace(1, 1)
        with pytest.raises(InsufficientDegreeError):
            kernel_view(unit_density(space))


class TestSerialization:
    def test_round_trip_exact(self, plane8):
        rng = np.random.default_rng(11)
        f = random_low_degree(plane8, rng, max_degree=8)
        data = json.loads(chaos_to_json(f))
        assert (data["dimension"], data["max_degree"]) == (2, 8)
        assert np.array_equal(np.asarray(data["coeffs"]), f.coeffs)

    def test_wire_format_fields(self, line16):
        data = json.loads(chaos_to_json(unit_density(line16)))
        assert data["dimension"] == 1
        assert data["max_degree"] == 16
        assert len(data["coeffs"]) == line16.size

    @given(x=st.floats(allow_nan=False, allow_infinity=False, width=64))
    @settings(max_examples=60, deadline=None)
    def test_seventeen_digits_round_trip(self, x):
        from wickllt.serialize import fmt17

        assert float(fmt17(x)) == x

    def test_flat_float_arrays_match_per_element_path(self):
        from wickllt.serialize import _emit, dumps_canonical, fmt17

        a = np.array([-0.0, 5e-324, 2.2250738585072014e-308 / 3, 3.0, -1.0, 0.1, 1e300, 1e308])
        per_element = "[" + ",".join(_emit(float(x)) for x in a) + "]"
        assert dumps_canonical(a) == per_element + "\n"
        assert dumps_canonical(a.tolist()) == per_element + "\n"
        nested = np.stack([a, a[::-1]])
        rows = ",".join("[" + ",".join(fmt17(x) for x in row) + "]" for row in nested)
        assert dumps_canonical({"s": nested}) == '{"s":[' + rows + "]}\n"
        for special in (math.nan, math.inf, -math.inf):
            mixed = [0.5, special, -0.0, 1e308]
            expected = "[" + ",".join(map(fmt17, mixed)) + "]\n"
            assert dumps_canonical(mixed) == expected == dumps_canonical(np.array(mixed))
        # a list takes the per-element path
        assert dumps_canonical([1, 2.0, True, None]) == "[1,2.0000000000000000e+00,true,null]\n"

    # (700, 7) and (5000,) span two blocks of serialize.BLOCK_VALUES
    @pytest.mark.parametrize(
        "shape", [(5, 3), (4, 1), (1, 6), (0, 4), (3, 0), (0,), (700, 7), (5000,)]
    )
    def test_float_arrays_of_any_shape_match_per_element_path(self, shape):
        from wickllt.serialize import dumps_canonical, fmt17

        def per_element(obj):
            if isinstance(obj, list):
                return "[" + ",".join(per_element(v) for v in obj) + "]"
            return fmt17(obj) if isinstance(obj, float) else str(obj)

        rng = np.random.default_rng(sum(shape))
        a = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
        assert dumps_canonical(a) == per_element(a.tolist()) + "\n"
        assert dumps_canonical(a.T) == per_element(a.T.tolist()) + "\n"
        if a.size:
            # a row holding nan, +inf or -inf takes the per-element path
            for special in (math.nan, math.inf, -math.inf):
                b = a.copy()
                b.reshape(len(b), -1)[-1, 0] = special  # a view of the copy
                assert dumps_canonical(b) == per_element(b.tolist()) + "\n"
                assert ("NaN" if special != special else "Infinity") in dumps_canonical(b)
        # an int array still emits ints
        ints = np.arange(math.prod(shape), dtype=np.int64).reshape(shape) - 3
        assert dumps_canonical(ints) == per_element(ints.tolist()) + "\n"

    def test_space_mismatch_rejected(self, line16, plane8):
        # the coefficients of one space's wire text are no vector of another
        data = json.loads(chaos_to_json(unit_density(line16)))
        with pytest.raises(ValueError, match="expected 45 coefficients"):
            ChaosVector(plane8, data["coeffs"])
