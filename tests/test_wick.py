import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wickllt.basis import (
    ChaosVector,
    GaussianSpace,
    basis_vector,
    eval_at,
    from_kernel_view,
    kernel_view,
)
from wickllt.wick import (
    NotNormalizedError,
    TruncationPolicy,
    center_density,
    discarded_mass,
    gamma,
    ou_apply,
    s_transform,
    stochastic_exponential,
    wick_exp,
    wick_power,
    wick_product,
)
from wickllt import wick
from wickllt.config import resolve_density

from conftest import random_low_degree, unit_density

small_coeff = st.floats(min_value=-0.8, max_value=0.8, allow_nan=False)


@pytest.fixture
def product_calls(monkeypatch):
    """Records every wick_product call made from inside the wick module."""
    calls = []
    product = wick.wick_product

    def counted(f, g, policy=None):
        calls.append(policy)
        return product(f, g, policy)

    monkeypatch.setattr(wick, "wick_product", counted)
    return calls


def _power_by_products(f, n, policy=None):
    # repeated squaring with wick_product: the reference for the ladder
    result, base = None, f
    while True:
        if n & 1:
            result = base if result is None else wick_product(result, base, policy)
        n >>= 1
        if n == 0:
            return result
        base = wick_product(base, base, policy)


def _dominant(f):
    # the same f with a constant term that outweighs the rest
    c = f.coeffs.copy()
    c[0] = 1.0 + np.abs(c[1:]).sum()
    return ChaosVector(f.space, c)


def _narrowed(f, cap):
    # f's coefficients up to degree cap, in the space of max_degree cap: the
    # graded order makes its table a prefix of f's
    space = GaussianSpace(f.space.dimension, cap)
    return ChaosVector(space, f.coeffs[: space.size])


def _degree_two(space, g):
    return from_kernel_view(space, np.zeros(space.dimension), np.asarray(g), constant=0.0)


def _product_series(base, cap):
    # sum_k base^{<>k} / k! by one Wick product per term
    series = term = unit_density(base.space)
    for k in range(1, cap // 2 + 1):
        term = wick_product(term, base, TruncationPolicy(cap)) * (1.0 / k)
        series = series + term
    return series


class TestWickProduct:
    def test_degree_one_squares_to_degree_two(self, line16):
        h1 = basis_vector(line16, (1,))
        result = wick_product(h1, h1)
        expected = basis_vector(line16, (2,))
        assert np.array_equal(result.coeffs, expected.coeffs)
        assert discarded_mass(h1, h1, 16) == 0.0

    def test_unit_element(self, line16):
        rng = np.random.default_rng(0)
        f = random_low_degree(line16, rng, max_degree=6)
        result = wick_product(unit_density(line16), f)
        assert np.array_equal(result.coeffs, f.coeffs)

    def test_exponential_binomial_convolution(self):
        space = GaussianSpace(1, 12)
        prod = wick_product(
            stochastic_exponential([0.3], space), stochastic_exponential([-0.1], space)
        )
        for k in range(13):
            assert prod.coeffs[space.position((k,))] == pytest.approx(
                0.2**k / math.factorial(k), abs=1e-15
            )

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_commutative_and_bilinear(self, plane8, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        f = random_low_degree(plane8, rng)
        g = random_low_degree(plane8, rng)
        h = random_low_degree(plane8, rng)
        a = data.draw(small_coeff)
        fg = wick_product(f, g)
        gf = wick_product(g, f)
        # identical term sets, different accumulation order: rounding only
        assert np.allclose(fg.coeffs, gf.coeffs, atol=1e-13)
        left = wick_product(f + a * h, g)
        right = fg + a * wick_product(h, g)
        assert np.allclose(left.coeffs, right.coeffs, atol=1e-12)

    def test_exact_associativity_within_cap(self, line16):
        rng = np.random.default_rng(4)
        f = random_low_degree(line16, rng, max_degree=4)
        g = random_low_degree(line16, rng, max_degree=4)
        h = random_low_degree(line16, rng, max_degree=4)
        left = wick_product(wick_product(f, g), h)
        right = wick_product(f, wick_product(g, h))
        # degrees above 16 - 4 are corrupted by the intermediate cap, but the
        # operands have degree <= 4 each so nothing is lost here
        assert np.allclose(left.coeffs, right.coeffs, atol=1e-13)

    def test_group_law_of_exponentials(self, line16):
        h, ell = 0.35, -0.2
        prod = wick_product(
            stochastic_exponential([h], line16), stochastic_exponential([ell], line16)
        )
        target = stochastic_exponential([h + ell], line16)
        assert np.abs(prod.coeffs - target.coeffs).max() <= 1e-12

    @given(
        h1=small_coeff, h2=small_coeff, l1=small_coeff, l2=small_coeff
    )
    @settings(max_examples=25, deadline=None)
    def test_group_law_random_shifts(self, plane8, h1, h2, l1, l2):
        h = np.array([h1, h2])
        ell = np.array([l1, l2])
        prod = wick_product(
            stochastic_exponential(h, plane8), stochastic_exponential(ell, plane8)
        )
        target = stochastic_exponential(h + ell, plane8)
        assert np.abs(prod.coeffs - target.coeffs).max() <= 1e-12


class TestDiscardedMass:
    def test_exact_mass_when_affordable(self):
        space = GaussianSpace(1, 6)
        rng = np.random.default_rng(9)
        f = random_low_degree(space, rng, max_degree=6, scale=0.5)
        # brute-force oracle: convolve the coefficient sequences fully
        full = np.zeros(13)
        for i in range(7):
            for j in range(7):
                full[i + j] += f.coeffs[i] * f.coeffs[j]
        expected = sum(
            math.factorial(k) * full[k] ** 2 for k in range(7, 13)
        )
        assert discarded_mass(f, f, 6) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("cap", [0, 3, 5, 8])
    def test_matches_brute_force_convolution(self, cap):
        space = GaussianSpace(1, 8)
        rng = np.random.default_rng(cap)
        f = random_low_degree(space, rng, max_degree=3, scale=0.5)
        g = random_low_degree(space, rng, max_degree=6, scale=0.5)
        full = np.convolve(f.coeffs[:4], g.coeffs[:7])
        expected = sum(math.factorial(k) * full[k] ** 2 for k in range(cap + 1, 10))
        assert discarded_mass(f, g, cap) == pytest.approx(expected, rel=1e-12)

    def test_mid_cap_drop_is_exact(self, line16):
        f = basis_vector(line16, (3,))
        result = wick_product(f, f, TruncationPolicy(4))
        # the degree-6 output is dropped by the cap but representable: 6! * 1
        assert result.coeffs[line16.position((6,))] == 0.0
        assert discarded_mass(f, f, 4) == pytest.approx(720.0)


class TestWideSpace:
    # d = 40 at K = 2: base-3 radix keys would need 3**40 > 2**63
    def test_products_of_degree_one(self):
        space = GaussianSpace(40, 2)
        m = np.random.default_rng(16).standard_normal(40)
        c = np.zeros(space.size)
        c[1:41] = m
        h = ChaosVector(space, c)
        prod = wick_product(h, h)
        view = kernel_view(prod)
        assert np.array_equal(view.mean, np.zeros(40))
        assert np.array_equal(view.kernel2, np.outer(m, m))
        assert np.array_equal(view.g2, np.outer(m, m))
        assert discarded_mass(h, h, 1) == pytest.approx(2.0 * float(m @ m) ** 2, rel=1e-12)

    def test_basis_products(self):
        space = GaussianSpace(40, 2)
        for i, j in [(0, 0), (0, 39), (17, 23), (39, 39)]:
            e_i = tuple(int(k == i) for k in range(40))
            e_j = tuple(int(k == j) for k in range(40))
            expected = basis_vector(space, tuple(a + b for a, b in zip(e_i, e_j)))
            prod = wick_product(basis_vector(space, e_i), basis_vector(space, e_j))
            assert np.array_equal(prod.coeffs, expected.coeffs)


class TestWickPower:
    def test_power_one_is_identity(self, line16):
        rng = np.random.default_rng(1)
        f = random_low_degree(line16, rng)
        assert np.array_equal(wick_power(f, 1).coeffs, f.coeffs)

    def test_power_matches_repeated_products(self, line16):
        rng = np.random.default_rng(2)
        f = random_low_degree(line16, rng, max_degree=3)
        by_power = wick_power(f, 5)
        acc = f
        for _ in range(4):
            acc = wick_product(acc, f)
        assert np.allclose(by_power.coeffs, acc.coeffs, atol=1e-13)

    def test_exponent_zero(self, line16):
        rng = np.random.default_rng(3)
        f = random_low_degree(line16, rng)
        assert np.array_equal(wick_power(f, 0).coeffs, unit_density(line16).coeffs)

    def test_ladder_matches_products_on_sweep_rows(self, product_calls):
        # the rows of a d=5, K=14 sweep of a product density, n = 4 ... 4^9
        space = GaussianSpace(5, 14)
        spec = {"kind": "product_hermite", "axis_coeffs": [1.0, 0.0, 0.1, 0.02]}
        centered = center_density(resolve_density(spec, space))
        for n in [4**k for k in range(1, 10)]:
            row = gamma(math.sqrt(0.5 / n), centered)
            product_calls.clear()
            by_ladder = wick_power(row, n)
            assert product_calls == []
            by_products = _power_by_products(row, n)
            assert np.abs(by_ladder.coeffs - by_products.coeffs).max() <= 1e-15

    def test_recurrence_respects_cap(self, plane8, product_calls):
        # the ladder in a space of max_degree 5 gives the power under
        # products capped at 5
        rng = np.random.default_rng(21)
        f = _dominant(random_low_degree(plane8, rng, max_degree=5))
        capped = wick_power(_narrowed(f, 5), 7)
        assert product_calls == []
        expected = _power_by_products(f, 7, TruncationPolicy(5))
        assert np.allclose(
            capped.coeffs, expected.coeffs[: capped.space.size], rtol=1e-13, atol=1e-15
        )

    def test_square_of_degree_one_is_h2(self, line16):
        # f_0 = 0: the ladder divides by nothing, and x^{<>2} = H_2 exactly
        x = basis_vector(line16, (1,))
        assert np.array_equal(wick_power(x, 2).coeffs, basis_vector(line16, (2,)).coeffs)

    def test_power_continuous_below_dominance(self, line16):
        # the constant term just below the sum of the rest changes nothing
        c = np.zeros(line16.size)
        c[:4] = [1.0, 0.25, -0.5, 0.25]  # the rest sums to exactly |c_0|
        at_edge = ChaosVector(line16, c)
        c[0] = np.nextafter(1.0, 0.0)
        below = wick_power(ChaosVector(line16, c), 3)
        assert np.allclose(below.coeffs, wick_power(at_edge, 3).coeffs, atol=1e-14)

    def test_recurrence_weight_does_not_wrap(self, line16, product_calls):
        # the weight binom(n, 1) = 2**60 is a float, not an int64 product
        # that wraps; the degree-16 coefficient of (1 + eps H_16)^{<>n} is n * eps
        f = unit_density(line16) + basis_vector(line16, (16,)) * 2.0**-70
        power = wick_power(f, 2**60)
        assert product_calls == []
        assert power.coeffs[line16.position((16,))] == pytest.approx(2.0**-10, rel=1e-12)


class TestWickExp:
    # a cap runs the exponential in the space of max_degree cap and compares
    # it with the product series capped there
    @pytest.mark.parametrize("cap", [None, 10])
    def test_line_matches_product_series(self, line16, cap):
        base = _degree_two(line16, [[0.2]])
        expected = _product_series(base, cap or line16.max_degree)
        got = wick_exp(base if cap is None else _narrowed(base, cap))
        assert np.allclose(got.coeffs, expected.coeffs[: got.space.size], rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("cap", [None, 7])
    def test_plane_matches_product_series(self, plane12, cap):
        base = _degree_two(plane12, [[0.2, 0.1], [0.1, 0.15]])
        expected = _product_series(base, cap or plane12.max_degree)
        got = wick_exp(base if cap is None else _narrowed(base, cap))
        assert np.allclose(got.coeffs, expected.coeffs[: got.space.size], rtol=1e-14, atol=0.0)

    def test_degree_one_gives_stochastic_exponential(self, plane8):
        h = np.array([0.3, -0.7])
        c = np.zeros(plane8.size)
        c[[plane8.position((1, 0)), plane8.position((0, 1))]] = h
        got = wick_exp(ChaosVector(plane8, c))
        expected = stochastic_exponential(h, plane8)
        assert np.allclose(got.coeffs, expected.coeffs, rtol=1e-14, atol=1e-16)

    def test_matches_power_sum(self, plane8):
        # with no constant term f^{<>j} starts at degree j, so the sum up to
        # j = K is exact on every represented degree
        rng = np.random.default_rng(22)
        f = random_low_degree(plane8, rng, max_degree=3)
        c = f.coeffs.copy()
        c[0] = 0.0
        f = ChaosVector(plane8, c)
        total = unit_density(plane8)
        term = unit_density(plane8)
        for j in range(1, plane8.max_degree + 1):
            term = wick_product(term, f) * (1.0 / j)
            total = total + term
        got = wick_exp(f)
        assert np.allclose(got.coeffs, total.coeffs, rtol=1e-12, atol=1e-14)
        c[0] = 0.5
        shifted = wick_exp(ChaosVector(plane8, c))
        assert np.allclose(shifted.coeffs, math.exp(0.5) * got.coeffs, rtol=1e-14, atol=1e-15)


class TestGamma:
    def test_halving_on_degree_two(self, line16):
        f = basis_vector(line16, (2,))
        assert gamma(0.5, f).coeffs[line16.position((2,))] == pytest.approx(0.25)

    def test_identity_at_one(self, line16):
        rng = np.random.default_rng(4)
        f = random_low_degree(line16, rng)
        assert np.array_equal(gamma(1.0, f).coeffs, f.coeffs)

    def test_exponential_maps_to_scaled_shift(self):
        space = GaussianSpace(1, 12)
        scaled = gamma(0.7, stochastic_exponential([0.4], space))
        target = stochastic_exponential([0.28], space)
        assert np.abs(scaled.coeffs - target.coeffs).max() <= 1e-15

    def test_unit_preserved(self, line16):
        assert np.array_equal(gamma(0.3, unit_density(line16)).coeffs, unit_density(line16).coeffs)

    @given(lam=st.floats(min_value=0, max_value=1), seed=st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_contraction(self, plane8, lam, seed):
        f = random_low_degree(plane8, np.random.default_rng(seed), max_degree=8)
        assert gamma(lam, f).norm_sq() <= f.norm_sq() + 1e-12

    @pytest.mark.parametrize("lam", [-0.1, 1.1, 2.0])
    def test_domain_rejected(self, line16, lam):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            gamma(lam, unit_density(line16))

    def test_functor_property(self, plane8):
        rng = np.random.default_rng(6)
        f = random_low_degree(plane8, rng, max_degree=4)
        g = random_low_degree(plane8, rng, max_degree=4)
        for lam in (0.0, 0.3, 1.0):
            left = gamma(lam, wick_product(f, g))
            right = wick_product(gamma(lam, f), gamma(lam, g))
            assert np.abs(left.coeffs - right.coeffs).max() <= 1e-14


class TestOrnsteinUhlenbeck:
    def test_time_zero_exact(self, line16):
        rng = np.random.default_rng(7)
        f = random_low_degree(line16, rng, max_degree=6)
        est = ou_apply(0.0, f, [0.8], mc_samples=10)
        assert est.value == pytest.approx(eval_at(f, [0.8]))
        assert est.standard_error == 0.0

    def test_degree_one_halved_at_log_two(self, line16):
        f = basis_vector(line16, (1,))
        est = ou_apply(math.log(2.0), f, [1.0], mc_samples=200_000, seed=5)
        assert abs(est.value - 0.5) <= 3 * est.standard_error

    def test_constant_fixed(self, line16):
        est = ou_apply(0.7, unit_density(line16), [0.3], mc_samples=100, seed=2)
        assert est.value == pytest.approx(1.0)

    def test_matches_gamma_route(self, plane8):
        rng = np.random.default_rng(8)
        f = random_low_degree(plane8, rng, max_degree=4)
        t = 0.4
        w = [0.5, -0.2]
        est = ou_apply(t, f, w, mc_samples=400_000, seed=9)
        target = eval_at(gamma(math.exp(-t), f), w)
        assert abs(est.value - target) <= 3 * est.standard_error


class TestStochasticExponential:
    def test_zero_shift_is_unit(self, line16):
        assert np.array_equal(
            stochastic_exponential([0.0], line16).coeffs, unit_density(line16).coeffs
        )

    def test_unit_shift_reciprocal_factorials(self):
        space = GaussianSpace(1, 12)
        f = stochastic_exponential([1.0], space)
        for k in range(13):
            assert f.coeffs[space.position((k,))] == pytest.approx(
                1.0 / math.factorial(k), abs=1e-16
            )

    def test_mixed_coefficients(self, plane8):
        f = stochastic_exponential([1.0, 2.0], plane8)
        assert f.coeffs[plane8.position((1, 1))] == pytest.approx(2.0)


class TestSTransform:
    def test_unit(self, line16):
        for h in ([0.0], [0.5], [-2.0]):
            assert s_transform(unit_density(line16), h) == 1.0

    def test_degree_two_square(self, line16):
        assert s_transform(basis_vector(line16, (2,)), [0.5]) == pytest.approx(0.25)

    def test_matches_inner_with_exponential(self, plane8):
        from wickllt.basis import chaos_inner

        rng = np.random.default_rng(12)
        f = random_low_degree(plane8, rng, max_degree=4)
        h = np.array([0.3, -0.4])
        assert s_transform(f, h) == pytest.approx(
            chaos_inner(f, stochastic_exponential(h, plane8)), rel=1e-12
        )

    def test_factorization_under_wick(self, plane8):
        rng = np.random.default_rng(13)
        h = np.array([0.3, 0.3])
        for _ in range(100):
            f = random_low_degree(plane8, rng, max_degree=4)
            g = random_low_degree(plane8, rng, max_degree=4)
            prod = wick_product(f, g)
            assert s_transform(prod, h) == pytest.approx(
                s_transform(f, h) * s_transform(g, h), rel=1e-10, abs=1e-12
            )


class TestCenterDensity:
    def test_pure_shift_centers_to_unit(self, line16):
        f = stochastic_exponential([0.4], line16)
        centered = center_density(f)
        assert np.abs(centered.coeffs - unit_density(line16).coeffs).max() <= 1e-12

    def test_mean_free_input_unchanged(self, line16):
        c = np.zeros(line16.size)
        c[0] = 1.0
        c[line16.position((2,))] = 0.1
        f = ChaosVector(line16, c)
        centered = center_density(f)
        assert np.array_equal(centered.coeffs, f.coeffs)

    def test_mean_free_input_skips_the_product(self, plane8, product_calls):
        rng = np.random.default_rng(23)
        c = random_low_degree(plane8, rng, max_degree=4).coeffs.copy()
        c[0] = 1.0
        c[plane8.degrees == 1] = 0.0
        f = ChaosVector(plane8, c)
        centered = center_density(f)
        assert product_calls == []
        by_product = wick_product(f, stochastic_exponential(np.zeros(2), plane8))
        assert np.array_equal(centered.coeffs, by_product.coeffs)

    def test_shifted_quadratic(self, line16):
        c = np.zeros(line16.size)
        c[0] = 1.0
        c[line16.position((2,))] = 0.1
        quad = ChaosVector(line16, c)
        f = wick_product(stochastic_exponential([0.4], line16), quad)
        centered = center_density(f)
        assert np.abs(centered.coeffs - quad.coeffs).max() <= 1e-12
        assert kernel_view(centered).kernel2[0, 0] == pytest.approx(0.1, abs=1e-12)

    def test_degree_structure(self, plane8):
        rng = np.random.default_rng(14)
        f = random_low_degree(plane8, rng, max_degree=4)
        c = f.coeffs.copy()
        c[0] = 1.0
        f = ChaosVector(plane8, c)
        centered = center_density(f)
        assert centered.coeffs[0] == pytest.approx(1.0, abs=1e-14)
        view = kernel_view(centered)
        assert np.abs(view.mean).max() <= 1e-14
        assert np.allclose(view.kernel2, kernel_view(f).g2, atol=1e-13)

    def test_idempotent(self, plane8):
        rng = np.random.default_rng(15)
        f = random_low_degree(plane8, rng, max_degree=4)
        c = f.coeffs.copy()
        c[0] = 1.0
        f = ChaosVector(plane8, c)
        once = center_density(f)
        twice = center_density(once)
        assert np.abs(once.coeffs - twice.coeffs).max() <= 1e-12

    def test_degree_one_exactly_zero_off_unit_mass(self, plane8):
        rng = np.random.default_rng(24)
        c = random_low_degree(plane8, rng, max_degree=4).coeffs.copy()
        c[0] = 1.0 - 1e-13
        centered = center_density(ChaosVector(plane8, c))
        assert np.array_equal(centered.coeffs[plane8.degrees == 1], np.zeros(2))

    def test_rejects_unnormalized(self, line16):
        c = np.zeros(line16.size)
        c[0] = 0.9
        with pytest.raises(NotNormalizedError, match="not a normalized density"):
            center_density(ChaosVector(line16, c))
