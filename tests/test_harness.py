import math
import warnings

import numpy as np
import pytest
from scipy import special, stats

from wickllt.audit import AssumptionViolationError
from wickllt.basis import ChaosVector, GaussianSpace, eval_many, kernel_view
from wickllt.config import ConfigError, DistanceConfig, load_config, resolve_density
from wickllt.harness import (
    KOLMOGOROV_1PCT,
    BoundViolationError,
    empirical_convolution_check,
    ks_against_density,
    l1_distance,
    l1_distances,
    rate_constant,
    rate_sweep,
    sum_density,
    young_check,
)
from wickllt.measures import gaussian_cov
from wickllt.wick import center_density, gamma, stochastic_exponential, wick_product

from conftest import random_low_degree, unit_density


def corpus_line_density(space):
    c = np.zeros(space.size)
    c[0] = 1.0
    c[space.position((2,))] = 0.1
    c[space.position((3,))] = 0.05
    return ChaosVector(space, c)


class TestSumDensity:
    def test_unit_density_stays_unit(self, line16):
        rho = sum_density(unit_density(line16), 7, 0.3)
        assert np.array_equal(rho.coeffs, unit_density(line16).coeffs)

    def test_limit_density_is_fixed_point(self, line16):
        xi = gaussian_cov([[0.2]], line16)
        rho = sum_density(xi, 5, 0.5)
        target = gamma(math.sqrt(0.5), xi)
        assert np.abs(rho.coeffs - target.coeffs).max() <= 1e-10

    def test_pure_shift_degenerates(self, line16):
        f = stochastic_exponential([0.4], line16)
        for n in (1, 3, 10):
            rho = sum_density(f, n, 0.5)
            assert np.abs(rho.coeffs - unit_density(line16).coeffs).max() <= 1e-12

    def test_mass_preserved_exactly(self, line16):
        f = corpus_line_density(line16)
        for n in (1, 4, 64, 256):
            assert sum_density(f, n, 0.5).coeffs[0] == 1.0

    def test_audit_gate(self, line16):
        c = np.zeros(line16.size)
        c[0] = 1.0
        c[line16.position((2,))] = -0.2  # negative excess: domination fails
        f = ChaosVector(line16, c)
        with pytest.raises(AssumptionViolationError):
            sum_density(f, 4, 0.5)
        rho = sum_density(f, 4, 0.5, override=True)
        assert rho.coeffs[0] == 1.0

    def test_alpha_domain(self, line16):
        with pytest.raises(ValueError):
            sum_density(unit_density(line16), 4, 1.0)

    def test_huge_n_stays_finite(self):
        # the row weights binom(n, j) (alpha/n)^j stay below alpha^j / j!
        space = GaussianSpace(1, 170)
        f = corpus_line_density(space)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rho = sum_density(f, 2**53, 0.99)
        assert np.isfinite(rho.coeffs).all()
        assert rho.coeffs[space.position((2,))] == pytest.approx(0.099, rel=1e-15)


class TestLowDegreeMatching:
    def test_centered_density_and_limit_agree_through_degree_two(self, plane8):
        # precondition for the bound constant: only degrees >= 3 differ
        rng = np.random.default_rng(20)
        for _ in range(10):
            f = random_low_degree(plane8, rng, max_degree=4, scale=0.2)
            c = f.coeffs.copy()
            c[0] = 1.0
            f = ChaosVector(plane8, c)
            g = kernel_view(f).g2
            if np.linalg.eigvalsh(g).min() < 0:
                continue
            centered = center_density(f)
            limit = gaussian_cov(g, plane8)
            low = plane8.degrees <= 2
            assert np.abs(centered.coeffs[low] - limit.coeffs[low]).max() <= 1e-12


class TestDistances:
    def test_identical_vectors(self, line16):
        f = corpus_line_density(line16)
        assert l1_distance(f, f).value == 0.0

    def test_shifted_gaussian_closed_form(self, line20):
        # oracle: the integrand changes sign once, at h/2; closed form in
        # Gaussian CDFs gives 2 (Phi(h/2) - Phi(-h/2))
        f = unit_density(line20)
        g = stochastic_exponential([0.5], line20)
        result = l1_distance(f, g, DistanceConfig())
        oracle = 2.0 * (stats.norm.cdf(0.25) - stats.norm.cdf(-0.25))
        assert abs(result.value - oracle) <= result.error + 2e-4
        assert result.value == pytest.approx(oracle, abs=2e-4)

    def test_mc_route_matches_quadrature(self, line16):
        f = corpus_line_density(line16)
        target = gamma(math.sqrt(0.5), gaussian_cov(kernel_view(f).g2, line16))
        rho = sum_density(f, 4, 0.5)
        quad = l1_distance(rho, target, DistanceConfig())
        mc = l1_distance(rho, target, DistanceConfig(method="mc", samples=200_000), seed=11)
        assert abs(mc.value - quad.value) <= 3 * mc.error + quad.error

    def test_triangle_inequality(self, plane8):
        rng = np.random.default_rng(3)
        spec = DistanceConfig()
        f = random_low_degree(plane8, rng)
        g = random_low_degree(plane8, rng)
        h = random_low_degree(plane8, rng)
        dfg = l1_distance(f, g, spec).value
        dgh = l1_distance(g, h, spec).value
        dfh = l1_distance(f, h, spec).value
        assert dfh <= dfg + dgh + 1e-10

    @pytest.mark.parametrize(
        "spec",
        [DistanceConfig(), DistanceConfig(method="mc", samples=5000)],
        ids=["quadrature", "mc"],
    )
    def test_batch_equals_one_at_a_time(self, plane8, spec):
        rng = np.random.default_rng(5)
        g = random_low_degree(plane8, rng)
        fs = [random_low_degree(plane8, rng) for _ in range(4)]
        batched = l1_distances(fs, g, spec, seed=17)
        assert batched == [l1_distance(f, g, spec, seed=17) for f in fs]

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"method": "mcx"}, "'quadrature' or 'mc'"),
            ({"method": "mc", "samples": 1}, "at least 2"),
        ],
        ids=["unknown_method", "one_sample"],
    )
    def test_library_spec_validated(self, fields, message):
        # a spec built in code, not parsed from a config, is checked too
        with pytest.raises(ConfigError, match=message):
            DistanceConfig(**fields)


class TestRateConstant:
    def test_fixed_point_gives_zero(self, line16):
        xi = gaussian_cov([[0.2]], line16)
        result = rate_constant(xi, 0.5)
        assert result.c <= 1e-12
        assert result.n0 == 1 and result.beta == 1.0

    def test_single_degree_three_term(self, line16):
        xi = gaussian_cov([[0.2]], line16)
        eps = 0.01
        c = xi.coeffs.copy()
        c[line16.position((3,))] += eps
        result = rate_constant(ChaosVector(line16, c), 0.5)
        assert result.c == pytest.approx(eps * math.sqrt(6.0), rel=1e-12)

    def test_quartic_coefficient_arithmetic(self, line16):
        # oracle: degrees 3.. of f~ - xi; here deg 4 carries 0.02 - G^2/2
        # and the limit series contributes alone at degrees 6, 8, ...
        c = np.zeros(line16.size)
        c[0] = 1.0
        c[line16.position((2,))] = 0.1
        c[line16.position((4,))] = 0.02
        f = ChaosVector(line16, c)
        g = 0.1
        expected = math.factorial(4) * (0.02 - g**2 / 2) ** 2
        for k in range(6, 17, 2):
            expected += math.factorial(k) * (g ** (k // 2) / math.factorial(k // 2)) ** 2
        result = rate_constant(f, 0.5)
        assert result.c == pytest.approx(math.sqrt(expected), rel=1e-9)

    def test_beta_and_n0_track_alpha(self, line16):
        f = corpus_line_density(line16)
        result = rate_constant(f, 0.8)
        assert result.beta == pytest.approx(4.0)
        assert result.n0 == 4

    def test_low_degree_raises(self):
        space = GaussianSpace(1, 2)
        c = np.zeros(space.size)
        c[0] = 1.0
        with pytest.raises(ValueError, match="rate constant is zero"):
            rate_constant(ChaosVector(space, c), 0.5)


def _config_for(density: dict, n_values, space=(1, 16), method="quadrature", **extra):
    raw = {
        "schema_version": 1,
        "seed": 2025,
        "space": {"dimension": space[0], "max_degree": space[1]},
        "density": density,
        "alpha": 0.5,
        "n_values": list(n_values),
        "distance": {"method": method}
        if method == "quadrature"
        else {"method": "mc", "samples": 20000},
    }
    raw.update(extra)
    import json
    import tempfile

    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(raw, fh)
        path = fh.name
    return load_config(path)


def _config_density(config):
    return resolve_density(config.density, config.build_space())


class TestRateSweep:
    def test_fixed_point_distances_vanish(self):
        config = _config_for(
            {"kind": "gaussian_cov", "g2": [[0.2]]}, [2, 5, 9], space=(1, 14)
        )
        table, report = rate_sweep(config, _config_density(config))
        assert report.all_passed
        for row in table.rows:
            assert row.l1 <= 1e-10

    def test_corpus_bound_and_monotonicity(self):
        config = _config_for(
            {
                "kind": "coefficients",
                "terms": [{"index": [2], "coeff": 0.1}, {"index": [3], "coeff": 0.05}],
            },
            [4, 16, 64, 256],
        )
        table, _ = rate_sweep(config, _config_density(config))
        values = [row.l1 for row in table.rows]
        assert all(b >= a for a, b in zip(values[1:], values))
        for row in table.rows:
            assert row.l1 <= row.bound + row.error
        slope = math.log(values[-1] / values[0]) / math.log(256 / 4)
        assert slope <= -0.5 + 0.15

    def test_one_basis_table_per_point_chunk(self, monkeypatch):
        import wickllt.basis as basis
        from wickllt.audit import audit_density

        config = _config_for(
            {"kind": "coefficients", "terms": [{"index": [2], "coeff": 0.1}]},
            [4, 16, 64],
            method="mc",
        )
        f = _config_density(config)
        report = audit_density(f, config.audit_grid)
        built = []
        real = basis._fill_table

        def counting(space, one_d, block, table):
            built.append(len(block))
            real(space, one_d, block, table)

        monkeypatch.setattr(basis, "_fill_table", counting)
        table, _ = rate_sweep(config, density=f, report=report)
        # 20,000 common samples in chunks of 2048, shared by all three rows
        assert len(table.rows) == 3
        assert built == [2048] * 9 + [20_000 - 9 * 2048]

    def test_fills_per_chunk_do_not_depend_on_rows(self, monkeypatch):
        # Above d = 1 every chunk fills one head and one tail table, shared
        # by all rows: a sweep of one row and one of three fill alike.
        import wickllt.basis as basis
        from wickllt.audit import audit_density

        density = {"kind": "product_hermite", "axis_coeffs": [1.0, 0.0, 0.1, 0.03]}
        real = basis._fill_table
        fills = []

        def counting(space, one_d, block, table):
            fills.append((space.dimension, len(block)))
            real(space, one_d, block, table)

        per_sweep = []
        for n_values in ([4], [4, 16, 64]):
            config = _config_for(density, n_values, space=(3, 6), method="mc")
            f = _config_density(config)
            report = audit_density(f, config.audit_grid)
            fills.clear()
            with monkeypatch.context() as patch:
                patch.setattr(basis, "_fill_table", counting)
                table, _ = rate_sweep(config, density=f, report=report)
            assert len(table.rows) == len(n_values)
            per_sweep.append(list(fills))
        chunks = [2048] * 9 + [20_000 - 9 * 2048]
        # the head (1 coordinate) then the tail (2 coordinates) of each chunk
        assert per_sweep[0] == per_sweep[1] == [(d, m) for m in chunks for d in (1, 2)]

    def test_rows_equal_sum_density(self, monkeypatch):
        # the llt_wick_d5 density: every row is sum_density's, bit for bit
        import wickllt.harness as harness
        from wickllt.audit import audit_density

        density = {"kind": "product_hermite", "axis_coeffs": [1.0, 0.0, 0.1, 0.02]}
        ns = [4**k for k in range(1, 10)]
        config = _config_for(density, ns, space=(5, 14), method="mc")
        f = _config_density(config)
        report = audit_density(f, config.audit_grid)
        rows = []

        def measured(fs, g, spec=None, seed=0):
            rows.extend(fs)
            return [harness.DistanceResult(0.0, 0.0) for _ in fs]

        monkeypatch.setattr(harness, "l1_distances", measured)
        rate_sweep(config, density=f, report=report)
        for n, row in zip(ns, rows, strict=True):
            alone = sum_density(f, n, config.alpha, report=report)
            assert np.array_equal(row.coeffs, alone.coeffs), n

    def test_one_ladder_for_all_rows(self, monkeypatch):
        import wickllt.harness as harness

        real = harness.excess_powers
        ladders = []

        def counting(f, top=None):
            ladder = real(f, top)
            ladders.append(len(ladder))
            return ladder

        density = {
            "kind": "coefficients",
            "terms": [{"index": [2], "coeff": 0.1}, {"index": [3], "coeff": 0.05}],
        }
        per_sweep = []
        for n_values in ([4], [4**k for k in range(1, 10)]):
            config = _config_for(density, n_values)
            ladders.clear()
            with monkeypatch.context() as patch:
                patch.setattr(harness, "excess_powers", counting)
                table, _ = rate_sweep(config, _config_density(config))
            assert len(table.rows) == len(n_values)
            assert table.power_ladder["rungs"] == 8
            per_sweep.append(list(ladders))
        # one ladder of u, ..., u^{<>8} (K = 16, lo = 2): 7 passes whatever the rows
        assert per_sweep[0] == per_sweep[1] == [9]

    def test_bound_violation_fails_loudly(self, monkeypatch):
        config = _config_for(
            {"kind": "coefficients", "terms": [{"index": [2], "coeff": 0.1}]},
            [4],
        )
        import wickllt.harness as harness

        # rate_sweep computes its constant from the centered density and
        # limit series it builds once, through the helper behind rate_constant
        real = harness._rate_constant

        def broken(centered, limit, alpha):
            result = real(centered, limit, alpha)
            return type(result)(result.c * 1e-9, result.n0, result.beta, result.tail_sum)

        monkeypatch.setattr(harness, "_rate_constant", broken)
        with pytest.raises(BoundViolationError) as info:
            rate_sweep(config, _config_density(config))
        assert info.value.rows and info.value.table is not None


class TestYoung:
    def test_units_give_equality(self, line16):
        report = young_check([unit_density(line16)] * 2, [0.5, 0.5])
        assert report.lhs == report.rhs == 1.0
        assert report.holds

    def test_quadratic_pair(self, line16):
        c = np.zeros(line16.size)
        c[0] = 1.0
        c[line16.position((2,))] = 1.0
        f = ChaosVector(line16, c)
        report = young_check([f, f], [0.5, 0.5])
        assert report.rhs == pytest.approx(3.0, rel=1e-12)
        assert report.holds

    def test_fifty_random_pairs(self, plane8):
        rng = np.random.default_rng(9)
        for _ in range(50):
            f = random_low_degree(plane8, rng)
            g = random_low_degree(plane8, rng)
            a = rng.random()
            report = young_check([f, g], [a, 1.0 - a])
            assert report.holds

    def test_weight_validation(self, line16):
        with pytest.raises(ValueError, match="sum to one"):
            young_check([unit_density(line16)] * 2, [0.5, 0.6])


class TestEmpiricalConvolution:
    def test_gaussian_pair(self, line16):
        report = empirical_convolution_check(
            unit_density(line16), unit_density(line16), (0.5, 0.5), samples=30_000, seed=1
        )
        assert report.passed

    def test_shifted_pair(self):
        space = GaussianSpace(1, 16)
        f = stochastic_exponential([0.4], space)
        report = empirical_convolution_check(
            f, unit_density(space), (0.5, 0.5), samples=30_000, seed=2
        )
        assert report.passed

    def test_prediction_is_scaled_shift(self):
        # gamma(sqrt(1/2)) E(0.4) <> 1 = E(0.4 sqrt(1/2)): check the predicted
        # density the test uses against the closed form
        space = GaussianSpace(1, 16)
        f = stochastic_exponential([0.4], space)
        predicted = wick_product(
            gamma(math.sqrt(0.5), f), gamma(math.sqrt(0.5), unit_density(space))
        )
        target = stochastic_exponential([0.4 * math.sqrt(0.5)], space)
        assert np.abs(predicted.coeffs - target.coeffs).max() <= 1e-14

    def test_quadratic_pair(self, line16):
        f = corpus_line_density(line16)
        c = f.coeffs.copy()
        c[line16.position((3,))] = 0.0
        f = ChaosVector(line16, c)
        report = empirical_convolution_check(f, f, (0.5, 0.5), samples=30_000, seed=3)
        assert report.passed

    def test_statistic_matches_scipy(self, line16):
        # the KS arithmetic is inlined to keep scipy off the runtime path
        f = corpus_line_density(line16)
        values = np.random.default_rng(4).standard_normal(3000)
        report = ks_against_density(values, f)
        grid = np.linspace(-10.0, 10.0, 8001)
        dens = np.clip(eval_many(f, grid[:, None]), 0.0, None) * stats.norm.pdf(grid)
        cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) * 0.5 * np.diff(grid))])
        cdf /= cdf[-1]
        expected = stats.ks_1samp(values, lambda x: np.interp(x, grid, cdf)).statistic
        assert report.ks_statistic == float(expected)
        assert report.critical_value == float(stats.kstwobign.isf(0.01) / math.sqrt(3000))

    def test_stored_kolmogorov_point_matches_scipy(self):
        assert KOLMOGOROV_1PCT == float(special.kolmogi(0.01))

    def test_dimension_restriction(self, plane8):
        with pytest.raises(ValueError, match="one-dimensional"):
            empirical_convolution_check(
                unit_density(plane8), unit_density(plane8), (0.5, 0.5), samples=100
            )
