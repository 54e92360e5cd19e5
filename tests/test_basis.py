import json
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wickllt.basis import (
    BasisTooLargeError,
    ChaosVector,
    GaussianSpace,
    IncompatibleBasisError,
    InsufficientDegreeError,
    basis_vector,
    chaos_inner,
    enumerate_indices,
    eval_at,
    eval_many,
    eval_stacked,
    from_kernel_view,
    hermite_eval,
    kernel_view,
    monomial_powers,
)
from wickllt.quadrature import tensor_rule
from wickllt.serialize import chaos_from_json, chaos_to_json
from wickllt.wick import stochastic_exponential

from conftest import random_low_degree, unit_density


class TestEnumeration:
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
        space = GaussianSpace(d, k)
        plan = space.plan()
        for p in range(1, space.size):
            alpha = space.indices[p]
            c = next(i for i, e in enumerate(alpha) if e > 0)
            assert (plan.coord[p], plan.entry[p]) == (c, alpha[c])
            zeroed = alpha.copy()
            zeroed[c] = 0
            assert np.array_equal(space.indices[plan.zeroed[p]], zeroed)

    @pytest.mark.parametrize(
        "entries, reason",
        [((1, 2, 0), "has length 3"), ((-1, 2), "negative entry"), ((5, 4), "has degree 9")],
    )
    def test_rank_rejects_outside_index(self, plane8, entries, reason):
        with pytest.raises(ValueError, match=rf"{reason}.*\(d=2, K=8\)"):
            plane8.position(entries)

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


def reference_eval(f, pts, chunk=2048):
    """Loop reference: a fresh full basis table per chunk, one GEMV per chunk.

    Returns the values and |c| @ |T| per point, the scale of the rounding
    error of any order of summing the terms c_alpha H_alpha.
    """
    space = f.space
    coord, order, rest = space.plan()
    out = np.empty(len(pts))
    scale = np.empty(len(pts))
    for start in range(0, len(pts), chunk):
        block = pts[start : start + chunk]
        vals = np.empty((space.size, len(block)))
        vals[0] = 1.0
        for p in range(1, space.size):
            vals[p] = hermite_eval(int(order[p]), block[:, coord[p]]) * vals[rest[p]]
        out[start : start + len(block)] = f.coeffs @ vals
        scale[start : start + len(block)] = np.abs(f.coeffs) @ np.abs(vals)
    return out, scale


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

    def test_tables_stay_small_at_d8(self, monkeypatch):
        # No fill has more rows than the tail space, binom(d - d//2 + K, K),
        # and the fills per chunk do not depend on the number of vectors.
        import wickllt.basis as basis
        from wickllt.measures import WeightedShifts, shift_mixture

        space = GaussianSpace(8, 8)
        limit = math.comb(8 - 8 // 2 + 8, 8)
        fills = []
        real = basis._fill_table

        def counting(sp, one_d, block, table):
            fills.append(len(table))
            real(sp, one_d, block, table)

        monkeypatch.setattr(basis, "_fill_table", counting)
        rng = np.random.default_rng(8)
        pts = rng.standard_normal((3000, 8))
        per_count = []
        for count in (1, 4):
            fills.clear()
            fs = [ChaosVector(space, rng.standard_normal(space.size)) for _ in range(count)]
            eval_stacked(fs, pts)
            per_count.append(len(fills))
            assert max(fills) <= limit < space.size
        assert per_count == [4, 4]  # head and tail table for each of 2 chunks
        fills.clear()
        shift_mixture(WeightedShifts(np.full(3000, 1 / 3000), 0.1 * pts), space)
        assert len(fills) == 4 and max(fills) <= limit

    def test_rejects_mixed_spaces(self, line16, plane8):
        with pytest.raises(IncompatibleBasisError):
            eval_stacked([unit_density(plane8), unit_density(line16)], np.zeros((1, 2)))


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
        restored = chaos_from_json(chaos_to_json(f))
        assert np.array_equal(restored.coeffs, f.coeffs)
        assert restored.space.is_compatible(f.space)

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
        # a list that is not all Python floats keeps the per-element path
        assert dumps_canonical([1, 2.0, True, None]) == "[1,2.0000000000000000e+00,true,null]\n"

    def test_space_mismatch_rejected(self, line16, plane8):
        text = chaos_to_json(unit_density(line16))
        with pytest.raises(ValueError):
            chaos_from_json(text, space=plane8)
