import math

import numpy as np
import pytest

from wickllt.audit import (
    AssumptionViolationError,
    CheckResult,
    audit_density,
    require_passed,
    variance_pairing,
)
from wickllt.basis import ChaosVector, GaussianSpace
from wickllt.wick import stochastic_exponential

from conftest import random_low_degree, unit_density


def quadratic_density(space, amount=0.1):
    c = np.zeros(space.size)
    c[0] = 1.0
    c[space.position(tuple(2 if i == 0 else 0 for i in range(space.dimension)))] = amount
    return ChaosVector(space, c)


class TestSquareIntegrability:
    def test_unit_density(self, line16):
        report = audit_density(unit_density(line16))
        assert report.l2_norm == pytest.approx(1.0)
        assert report.normalization == 1.0
        assert report.min_on_grid == pytest.approx(1.0)
        assert report.verdicts["normalization"].passed
        assert report.verdicts["nonnegativity"].passed

    def test_exponential_norm_value(self, line20):
        report = audit_density(stochastic_exponential([0.5], line20))
        assert report.l2_norm == pytest.approx(math.exp(0.125), rel=1e-10)
        assert report.min_on_grid > 0.0
        assert report.verdicts["normalization"].passed

    def test_normalization_violation(self, line16):
        c = np.zeros(line16.size)
        c[0] = 0.9
        report = audit_density(ChaosVector(line16, c))
        assert report.normalization == 0.9
        assert not report.verdicts["normalization"].passed
        assert not report.all_passed

    @pytest.mark.parametrize("amount, passes", [(0.6, True), (1.2, False)], ids=["moderate", "large"])
    def test_nonnegativity_screen(self, line16, amount, passes):
        # 1 + a He2 is smallest at the origin, a grid point, where it is 1 - a
        report = audit_density(quadratic_density(line16, amount))
        assert report.min_on_grid == pytest.approx(1.0 - amount)
        assert report.verdicts["nonnegativity"].passed is passes


class TestRequirePassed:
    def test_unit_coefficients_pass(self, line16):
        c = np.zeros(line16.size)
        c[0] = 1.0
        report = audit_density(ChaosVector(line16, c))
        assert report.all_passed
        require_passed(report.verdicts)

    def test_half_mass_is_refused(self, line16):
        c = np.zeros(line16.size)
        c[0] = 0.5
        report = audit_density(ChaosVector(line16, c))
        with pytest.raises(AssumptionViolationError, match=r"normalization \(measured 0\.5,") as err:
            require_passed(report.verdicts)
        assert "nonnegativity" not in str(err.value)

    def test_names_the_checked_set(self):
        # any set of verdicts goes through the same gate, named by what
        verdicts = {"held": CheckResult(True, 0.0, 1.0), "broke": CheckResult(False, 2.5, 1.0)}
        with pytest.raises(AssumptionViolationError) as err:
            require_passed(verdicts, "identity suite")
        assert str(err.value) == "identity suite failed: broke (measured 2.5, threshold 1)"
        require_passed({"held": verdicts["held"]}, "identity suite")


class TestVarianceDomination:
    def test_unit_density_boundary(self, line16):
        report = audit_density(unit_density(line16))
        assert report.min_eigenvalue_m == pytest.approx(0.0, abs=1e-15)
        assert report.trace_m == pytest.approx(0.0, abs=1e-15)
        assert report.verdicts["variance_domination"].passed

    def test_quadratic_density(self, line16):
        report = audit_density(quadratic_density(line16))
        assert report.min_eigenvalue_m == pytest.approx(0.2)
        assert report.trace_m == pytest.approx(0.2)
        assert report.verdicts["variance_domination"].passed

    def test_pure_shift_boundary(self, line16):
        report = audit_density(stochastic_exponential([0.4], line16))
        assert report.min_eigenvalue_m == pytest.approx(0.0, abs=1e-14)
        assert report.verdicts["variance_domination"].passed

    def test_negative_excess_fails(self, line16):
        c = np.zeros(line16.size)
        c[0] = 1.0
        c[line16.position((2,))] = -0.1
        report = audit_density(ChaosVector(line16, c))
        assert not report.verdicts["variance_domination"].passed


class TestExcessSize:
    def test_unit_density(self, line16):
        report = audit_density(unit_density(line16))
        assert report.frobenius_sq_m == 0.0
        assert report.verdicts["excess_frobenius"].passed

    def test_quadratic_density(self, line16):
        report = audit_density(quadratic_density(line16))
        assert report.frobenius_sq_m == pytest.approx(0.04)
        assert report.spectral_radius_2g == pytest.approx(0.2)

    def test_two_dimensional_diagonal(self, plane12):
        from wickllt.limit_density import gaussian_limit_series

        f = gaussian_limit_series(np.diag([0.3, 0.3]), plane12).series
        report = audit_density(f)
        assert report.frobenius_sq_m == pytest.approx(0.72, rel=1e-10)
        assert report.spectral_radius_2g == pytest.approx(0.6, rel=1e-10)
        assert report.verdicts["excess_frobenius"].passed

    def test_frobenius_is_exactly_four_g(self, plane12):
        rng = np.random.default_rng(3)
        f = random_low_degree(plane12, rng, max_degree=4)
        c = f.coeffs.copy()
        c[0] = 1.0
        f = ChaosVector(plane12, c)
        from wickllt.basis import kernel_view

        report = audit_density(f)
        g = kernel_view(f).g2
        assert report.frobenius_sq_m == pytest.approx(4.0 * float(np.sum(g * g)), rel=1e-14)

    def test_pass_implies_admissible_spectrum(self, plane12):
        rng = np.random.default_rng(4)
        for _ in range(20):
            f = random_low_degree(plane12, rng, max_degree=4, scale=0.2)
            c = f.coeffs.copy()
            c[0] = 1.0
            report = audit_density(ChaosVector(plane12, c))
            if report.verdicts["excess_frobenius"].passed:
                assert report.spectral_radius_2g <= math.sqrt(report.frobenius_sq_m) + 1e-12
                assert report.spectral_radius_2g < 1.0


class TestVariancePairing:
    def test_unit_density(self, line16):
        result = variance_pairing(unit_density(line16), [1.0])
        assert result.formula_value == pytest.approx(1.0)
        assert result.quadrature_value == pytest.approx(1.0, rel=1e-12)

    def test_quadratic_density(self, line16):
        result = variance_pairing(quadratic_density(line16), [1.0])
        assert result.formula_value == pytest.approx(1.2)
        assert result.quadrature_value == pytest.approx(1.2, rel=1e-10)

    def test_shift_invariance(self, line16):
        result = variance_pairing(stochastic_exponential([0.4], line16), [1.0])
        assert result.formula_value == pytest.approx(1.0, abs=1e-14)
        assert result.quadrature_value == pytest.approx(1.0, rel=1e-10)

    def test_identity_on_random_inputs(self, plane8):
        rng = np.random.default_rng(5)
        for _ in range(30):
            f = random_low_degree(plane8, rng, max_degree=6)
            c = f.coeffs.copy()
            c[0] = 1.0
            f = ChaosVector(plane8, c)
            h = rng.standard_normal(2) + np.array([0.0, 1.5])
            result = variance_pairing(f, h)
            assert result.quadrature_value == pytest.approx(
                result.formula_value, rel=1e-8
            )

    def test_high_dimension_formula_only(self):
        space = GaussianSpace(5, 4)
        result = variance_pairing(unit_density(space), np.ones(5))
        assert result.formula_value == pytest.approx(5.0)
        assert result.quadrature_value is None


class TestFullAudit:
    def test_report_shape_and_json(self, line16):
        report = audit_density(quadratic_density(line16))
        assert report.all_passed
        data = report.to_json_dict()
        assert set(data["verdicts"]) == {
            "normalization",
            "nonnegativity",
            "variance_domination",
            "excess_frobenius",
        }
        assert data["all_passed"] is True

    def test_deterministic(self, line16):
        f = quadratic_density(line16)
        a = audit_density(f).to_json_dict()
        b = audit_density(f).to_json_dict()
        assert a == b

    def test_mc_grid_high_dimension(self):
        space = GaussianSpace(5, 4)
        report = audit_density(unit_density(space))
        assert report.all_passed


class TestDensityAudit:
    """audit_density takes a config Density; a bare vector counts as kind
    coefficients, and a product_hermite density is screened from its axis
    factor."""

    @pytest.mark.parametrize(
        "section, space",
        [
            ({"kind": "shift_mixture", "weights": [0.5, 0.5], "shifts": [[0.4, 0.2], [-0.4, -0.2]]}, (2, 8)),
            ({"kind": "gaussian_cov", "g2": [[0.1, 0.0], [0.0, 0.05]]}, (2, 6)),
        ],
        ids=["shift_mixture", "gaussian_cov"],
    )
    def test_other_kinds_equal_the_bare_vector(self, section, space):
        from wickllt.config import resolve_density

        density = resolve_density(section, GaussianSpace(*space))
        assert audit_density(density).to_json_dict() == audit_density(density.vector).to_json_dict()

    @pytest.mark.parametrize("space", [(2, 8), (3, 7), (5, 14)])
    def test_product_screen_never_evaluates_the_vector(self, monkeypatch, space):
        import wickllt.audit as audit
        from wickllt.config import resolve_density

        section = {"kind": "product_hermite", "axis_coeffs": [1.0, 0.0, 0.1, 0.02]}
        density = resolve_density(section, GaussianSpace(*space))
        want = audit_density(density.vector).to_json_dict()
        monkeypatch.setattr(audit, "eval_many", None)  # the d-space route would fail
        got = audit_density(density).to_json_dict()
        # the screen sums each value in another order: roundoff of the O(1) values
        assert got.pop("min_on_grid") == pytest.approx(want.pop("min_on_grid"), rel=1e-14)
        for report in (got, want):
            del report["verdicts"]["nonnegativity"]["measured"]
        assert got == want
