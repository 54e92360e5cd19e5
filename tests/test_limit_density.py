import math

import numpy as np
import pytest

from wickllt.audit import AssumptionViolationError
from wickllt.basis import GaussianSpace, eval_many
from wickllt.limit_density import (
    gaussian_limit_closed_form,
    gaussian_limit_series,
    limit_char_functional,
    limit_l2_norms,
    pointwise_tail_bound,
    self_similarity_defect,
)
from wickllt.quadrature import tensor_rule

from conftest import unit_density


class TestSeries:
    def test_zero_kernel_gives_unit(self, line16):
        density = gaussian_limit_series(np.zeros((1, 1)), line16)
        assert np.array_equal(density.series.coeffs, unit_density(line16).coeffs)
        assert density.l2_tail_sq == 0.0

    def test_one_dimensional_coefficients(self, line16):
        density = gaussian_limit_series([[0.2]], line16)
        for k in range(9):
            expected = 0.2**k / math.factorial(k)
            assert density.series.coeffs[line16.position((2 * k,))] == pytest.approx(
                expected, rel=1e-14
            )

    def test_diagonal_product_structure(self, plane12):
        density = gaussian_limit_series(np.diag([0.1, 0.2]), plane12)
        assert density.series.coeffs[plane12.position((2, 2))] == pytest.approx(0.02)

    def test_even_degree_support(self, plane12):
        density = gaussian_limit_series([[0.1, 0.03], [0.03, 0.06]], plane12)
        odd = density.series.coeffs[plane12.degrees % 2 == 1]
        assert np.all(odd == 0.0)

    @pytest.mark.parametrize("lower", [0.030000001, 0.03 + 2**-57])
    def test_rejects_any_asymmetry(self, plane12, lower):
        # the rule of from_kernel_view, checked before the eigenvalues (which
        # read one triangle only)
        with pytest.raises(ValueError, match="excess kernel must be exactly symmetric"):
            gaussian_limit_series([[0.1, 0.03], [lower, 0.06]], plane12)

    def test_rejects_non_psd(self, line16):
        with pytest.raises(AssumptionViolationError, match="positive semidefinite"):
            gaussian_limit_series([[-0.1]], line16)

    def test_rejects_inadmissible_spectrum(self, line16):
        with pytest.raises(AssumptionViolationError, match="spectral radius"):
            gaussian_limit_series([[0.5]], line16)

    def test_degree_two_kernel_is_g(self, plane12):
        from wickllt.basis import kernel_view

        g = np.array([[0.1, 0.03], [0.03, 0.06]])
        density = gaussian_limit_series(g, plane12)
        assert np.allclose(kernel_view(density.series).g2, g, atol=1e-15)


class TestClosedForm:
    def test_zero_kernel(self):
        assert gaussian_limit_closed_form(np.zeros((1, 1)), [0.7]) == pytest.approx(1.0)

    def test_quarter_kernel_at_origin(self):
        assert gaussian_limit_closed_form([[0.25]], [0.0]) == pytest.approx(
            1.5**-0.5, rel=1e-14
        )

    def test_series_matches_closed_form(self):
        space = GaussianSpace(1, 16)
        density = gaussian_limit_series([[0.1]], space)
        grid = np.arange(-2.0, 3.0)[:, None]
        series_vals = eval_many(density.series, grid)
        closed_vals = gaussian_limit_closed_form([[0.1]], grid)
        assert np.abs(series_vals / closed_vals - 1.0).max() <= 1e-6

    def test_tail_bound_dominates_residual(self):
        space = GaussianSpace(1, 16)
        g = [[0.1]]
        density = gaussian_limit_series(g, space)
        grid = np.linspace(-3, 3, 41)[:, None]
        residual = np.abs(
            eval_many(density.series, grid) - gaussian_limit_closed_form(g, grid)
        )
        bounds = np.array([pointwise_tail_bound(g, w, 16) for w in grid])
        assert np.all(residual <= bounds)

    def test_closed_form_strictly_positive(self, plane12):
        g = [[0.1, 0.03], [0.03, 0.06]]
        grid = np.random.default_rng(0).standard_normal((200, 2)) * 2.5
        assert gaussian_limit_closed_form(g, grid).min() > 0.0


class TestCharFunctional:
    def test_at_zero(self):
        assert limit_char_functional([[0.2]], [0.0]) == 1.0

    def test_zero_kernel_is_reference_functional(self):
        h = [0.7]
        assert limit_char_functional(np.zeros((1, 1)), h) == pytest.approx(
            math.exp(-0.245), rel=1e-14
        )

    def test_example_value(self):
        assert limit_char_functional([[0.2]], [1.0]) == pytest.approx(
            math.exp(-0.7), rel=1e-14
        )

    def test_against_cosine_quadrature(self):
        # real part of the Fourier transform of the series, by quadrature
        space = GaussianSpace(1, 20)
        g = [[0.15]]
        density = gaussian_limit_series(g, space)
        pts, wts = tensor_rule(1, 80)
        h = 1.0
        integral = float(
            np.dot(wts, np.cos(h * pts[:, 0]) * eval_many(density.series, pts))
        )
        assert integral == pytest.approx(limit_char_functional(g, [h]), abs=1e-8)


class TestL2Norms:
    def test_zero_kernel(self, line16):
        norms = limit_l2_norms(gaussian_limit_series(np.zeros((1, 1)), line16))
        assert norms == pytest.approx((1.0, 1.0, 1.0))

    def test_rank_one_line(self):
        space = GaussianSpace(1, 24)
        norms = limit_l2_norms(gaussian_limit_series([[0.3]], space))
        assert norms.determinant_value == pytest.approx((1 - 0.36) ** -0.5, rel=1e-14)
        assert norms.scalar_frobenius_value == pytest.approx(
            norms.determinant_value, abs=1e-14
        )
        density = gaussian_limit_series([[0.3]], space)
        assert abs(norms.series_value - norms.determinant_value) <= density.l2_tail_sq + 1e-12

    def test_rank_two_strict_inequality(self):
        space = GaussianSpace(2, 24)
        norms = limit_l2_norms(gaussian_limit_series(np.diag([0.3, 0.3]), space))
        assert norms.determinant_value == pytest.approx(1.5625, rel=1e-14)
        assert norms.scalar_frobenius_value == pytest.approx(
            (1 - 4 * 0.18) ** -0.5, rel=1e-12
        )
        assert norms.determinant_value < norms.scalar_frobenius_value

    def test_scalar_undefined_above_threshold(self, plane12):
        # |G|_F^2 >= 1/4 makes the one-number form undefined while the exact
        # eigenvalue product stays finite (spectrum still admissible)
        g = np.diag([0.36, 0.36])
        assert float(np.sum(g * g)) >= 0.25
        norms = limit_l2_norms(gaussian_limit_series(g, plane12))
        assert norms.scalar_frobenius_value is None
        assert math.isfinite(norms.determinant_value)


class TestSelfSimilarity:
    def test_trivial_at_one(self, line16):
        assert self_similarity_defect([[0.2]], 1, line16) == 0.0

    def test_line_power_four(self):
        space = GaussianSpace(1, 12)
        assert self_similarity_defect([[0.2]], 4, space) <= 1e-10

    def test_plane_off_diagonal_power_three(self):
        space = GaussianSpace(2, 10)
        g = [[0.2, 0.1], [0.1, 0.15]]
        assert self_similarity_defect(g, 3, space) <= 1e-10


class TestMomentStructure:
    def test_mean_zero_covariance_matches_sampling(self):
        # empirical covariance of N(0, I + 2G) draws vs the kernel
        rng = np.random.default_rng(21)
        g = np.array([[0.1, 0.04], [0.04, 0.15]])
        cov = np.eye(2) + 2 * g
        n = 200_000
        draws = rng.multivariate_normal(np.zeros(2), cov, size=n)
        emp = draws.T @ draws / n
        se = 3.0 * np.abs(cov) * math.sqrt(2.0 / n) + 3.0 / math.sqrt(n) * 0.05
        assert np.all(np.abs(emp - cov) <= se + 3e-3)

    def test_truncated_series_nonnegative_within_tail(self):
        space = GaussianSpace(1, 16)
        g = [[0.1]]
        density = gaussian_limit_series(g, space)
        grid = np.linspace(-3, 3, 41)[:, None]
        vals = eval_many(density.series, grid)
        floor = -max(pointwise_tail_bound(g, w, 16) for w in grid)
        assert vals.min() >= floor
