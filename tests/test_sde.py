import math

import numpy as np
import pytest

from wickllt.audit import audit_density, variance_pairing
from wickllt.basis import GaussianSpace
from wickllt.measures import shift_mixture
from wickllt.sde import SdeNumericError, drift_from_config, simulate_drift_shifts

from conftest import unit_density

ZERO = drift_from_config({"kind": "zero"})
HALF = drift_from_config({"kind": "constant", "value": 0.5})
ONE = drift_from_config({"kind": "constant", "value": 1.0})
SIN_HALF = drift_from_config({"kind": "scaled_sin", "scale": 0.5})


class TestSimulateShifts:
    def test_zero_drift(self):
        shifts = simulate_drift_shifts(ZERO, 8, 64, seed=1).measure
        assert np.all(shifts.shifts == 0.0)
        assert shifts.weights.sum() == pytest.approx(1.0)

    def test_constant_drift_exact_geometry(self):
        # every component equals -sqrt(dt) c and |h|^2 = c^2, path independent
        c = 0.5
        shifts = simulate_drift_shifts(HALF, 8, 32, seed=2).measure
        assert np.allclose(shifts.shifts, -math.sqrt(1.0 / 8) * c)
        energies = np.sum(shifts.shifts**2, axis=1)
        assert np.allclose(energies, c * c, rtol=1e-14)

    def test_sin_drift_energy_below_quarter(self):
        shifts = simulate_drift_shifts(SIN_HALF, 8, 10_000, seed=3).measure
        total = float(np.mean(np.sum(shifts.shifts**2, axis=1)))
        assert total < 0.25 < 1.0

    def test_deterministic_and_block_invariant(self):
        a = simulate_drift_shifts(SIN_HALF, 4, 2000, seed=4)
        b = simulate_drift_shifts(SIN_HALF, 4, 2000, seed=4)
        assert np.array_equal(a.measure.shifts, b.measure.shifts)
        assert (a.novikov, a.energy) == (b.novikov, b.energy)

    @pytest.mark.parametrize("steps, paths, message", [(0, 8, "one time step"), (4, 0, "one path")])
    def test_needs_a_step_and_a_path(self, steps, paths, message):
        with pytest.raises(ValueError, match=f"need at least {message}"):
            simulate_drift_shifts(ZERO, steps, paths)

    def test_nonfinite_drift_reported(self):
        with pytest.raises(SdeNumericError, match="non-finite"):
            simulate_drift_shifts(lambda x: np.where(x > 0, np.inf, 0.0), 8, 256, seed=5)


class TestNovikov:
    def test_zero_drift_exact_one(self):
        est = simulate_drift_shifts(ZERO, 8, 128, seed=1).novikov
        assert est.estimate == 1.0
        assert est.standard_error == 0.0

    def test_unit_drift_exact(self):
        # the exponent |h|^2 / 2 sums eight rounded squares of sqrt(1/8)
        est = simulate_drift_shifts(ONE, 8, 1024, seed=2).novikov
        assert est.estimate == pytest.approx(math.exp(0.5), rel=1e-15)
        assert est.standard_error == 0.0

    def test_sin_drift_bracket(self):
        est = simulate_drift_shifts(SIN_HALF, 8, 10_000, seed=3).novikov
        assert 1.0 < est.estimate <= math.exp(0.125) + 3 * est.standard_error

    def test_overflow_reported(self):
        with pytest.raises(SdeNumericError, match="Novikov check failed"):
            simulate_drift_shifts(lambda x: np.full_like(x, 60.0), 4, 16, seed=4)

    def test_from_shifts_matches(self):
        # both gates are read off the draw that made the shifts
        draw = simulate_drift_shifts(SIN_HALF, 8, 4000, seed=6)
        squares = np.sum(draw.measure.shifts**2, axis=1)
        assert draw.novikov.estimate == float(np.mean(np.exp(0.5 * squares)))
        assert draw.energy.estimate == pytest.approx(float(np.mean(squares)), rel=1e-12)


class TestMeanSquareDrift:
    def test_zero_drift(self):
        draw = simulate_drift_shifts(ZERO, 8, 64, seed=1)
        assert draw.energy.estimate == 0.0
        assert draw.drift_energy == (True, 0.0, 1.0)

    def test_unit_drift_boundary_fails(self):
        draw = simulate_drift_shifts(ONE, 8, 1024, seed=2)
        assert draw.energy.estimate == 1.0
        assert draw.energy.standard_error == 0.0
        assert draw.drift_energy == (False, 1.0, 1.0)  # the condition is strict

    def test_half_drift_exact_quarter(self):
        draw = simulate_drift_shifts(HALF, 8, 1024, seed=3)
        assert draw.energy.estimate == 0.25
        assert draw.drift_energy == (True, 0.25, 1.0)

    def test_sin_drift_passes(self):
        draw = simulate_drift_shifts(SIN_HALF, 8, 10_000, seed=4)
        upper = draw.energy.estimate + 3 * draw.energy.standard_error
        assert upper < 1.0
        assert draw.drift_energy == (True, upper, 1.0)


def sde_density(b1, steps, paths, space, seed):
    """The density of the drift measure, as the sde command builds it."""
    return shift_mixture(simulate_drift_shifts(b1, steps, paths, seed).measure, space)


class TestSdeDensity:
    def test_zero_drift_unit_density(self):
        space = GaussianSpace(4, 6)
        density = sde_density(ZERO, 4, 100, space, seed=1)
        assert np.array_equal(density.coeffs, unit_density(space).coeffs)

    def test_constant_drift_is_shifted_gaussian(self):
        from wickllt.wick import stochastic_exponential

        space = GaussianSpace(4, 6)
        density = sde_density(HALF, 4, 50, space, seed=2)
        shift = np.full(4, -math.sqrt(1.0 / 4) * 0.5)
        target = stochastic_exponential(shift, space)
        assert np.allclose(density.coeffs, target.coeffs, atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shifts have dimension 8, space has 4"):
            sde_density(ZERO, 8, 10, GaussianSpace(4, 4), seed=3)

    def test_sin_density_audited(self):
        space = GaussianSpace(4, 6)
        density = sde_density(SIN_HALF, 4, 2000, space, seed=4)
        report = audit_density(density)
        assert report.all_passed
        assert report.frobenius_sq_m < 1.0

    def test_variance_decomposition(self):
        # Var<X, e_i> = 1 + Var_nu<Y, e_i> within Monte-Carlo tolerance
        space = GaussianSpace(4, 6)
        paths = 4000
        shifts = simulate_drift_shifts(SIN_HALF, 4, paths, seed=7).measure
        density = shift_mixture(shifts, space)
        for i in range(4):
            h = np.zeros(4)
            h[i] = 1.0
            total = variance_pairing(density, h).formula_value
            comp = shifts.shifts[:, i]
            nu_var = float(comp.var())
            se = float(comp.var() * math.sqrt(2.0 / paths)) + 1e-4
            assert abs(total - (1.0 + nu_var)) <= 3 * se

    def test_exponential_integrability_reported_finite(self):
        shifts = simulate_drift_shifts(SIN_HALF, 8, 5000, seed=8).measure
        value = shifts.exponential_integrability()
        assert math.isfinite(value)
        assert value >= 1.0
