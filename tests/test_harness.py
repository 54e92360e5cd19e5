import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import special, stats

from wickllt.basis import (
    ChaosVector,
    GaussianSpace,
    axis_product,
    eval_axis_products,
    eval_many,
    eval_stacked,
    kernel_view,
)
from wickllt.config import ConfigError, DistanceConfig, load_config, resolve_density
from wickllt.harness import (
    KOLMOGOROV_1PCT,
    NOISE_FLOOR,
    BoundViolationError,
    DistanceResult,
    _distances,
    empirical_convolution_check,
    ks_against_density,
    l1_distance,
    l1_distances,
    rate_constant,
    rate_sweep,
    sum_density,
    young_check,
)
from wickllt.identities import _check_orthogonality, run_identity_suite
from wickllt.limit_density import gaussian_limit_series
from wickllt.measures import DensityValidationError
from wickllt.streams import STREAM_DISTANCE, child_seed, substream
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
        xi = gaussian_limit_series([[0.2]], line16).series
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
        # a negative excess fails variance domination; sum_density audits nothing
        c = f.coeffs.copy()
        c[line16.position((2,))] = -0.2
        for g in (f, ChaosVector(line16, c)):
            for n in (1, 4, 64, 256):
                assert sum_density(g, n, 0.5).coeffs[0] == 1.0

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
            limit = gaussian_limit_series(g, plane8).series
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
        target = gamma(math.sqrt(0.5), gaussian_limit_series(kernel_view(f).g2, line16).series)
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


class TestDistanceStream:
    """The Monte-Carlo route draws its points one evaluation chunk at a time."""

    @pytest.fixture(scope="class")
    def cube8(self):
        return GaussianSpace(8, 8)

    @staticmethod
    def _rows(space, count):
        rng = np.random.default_rng(count)
        g = unit_density(space)
        noise = [1e-3 * rng.standard_normal(space.size) / space.factorials for _ in range(count)]
        return [ChaosVector(space, g.coeffs + c) for c in noise], g

    @pytest.mark.parametrize("case", ["ragged_last_chunk", "below_one_chunk"])
    def test_equals_one_draw_of_all_points(self, cube8, case):
        chunk = cube8.split().chunk
        samples = 20_000 if case == "ragged_last_chunk" else chunk - 1
        assert samples % chunk
        fs, g = self._rows(cube8, 3)
        pts = substream(41, STREAM_DISTANCE).standard_normal((samples, 8))
        values = np.abs(eval_stacked([f - g for f in fs], pts))
        want = [
            DistanceResult(float(v.mean()), float(v.std(ddof=1) / math.sqrt(samples)))
            for v in values
        ]
        spec = DistanceConfig(method="mc", samples=samples)
        assert l1_distances(fs, g, spec, seed=41) == want

    def test_peak_grows_by_the_values_not_the_points(self, cube8):
        fs, g = self._rows(cube8, 2)
        peaks = []
        for samples in (10_000, 20_000):
            spec = DistanceConfig(method="mc", samples=samples)
            l1_distances(fs, g, spec)  # the space's cached plans are built untraced
            tracemalloc.start()
            try:
                l1_distances(fs, g, spec)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # 10,000 more samples add one float each to the 2 rows of |values|;
        # all the points at once would add 8 (d) more each
        added = 10_000 * 8
        assert 1.5 * added <= peaks[1] - peaks[0] <= 3 * added


class TestRateConstant:
    def test_fixed_point_gives_zero(self, line16):
        xi = gaussian_limit_series([[0.2]], line16).series
        result = rate_constant(xi, 0.5)
        assert result.c <= 1e-12
        assert result.n0 == 1 and result.beta == 1.0

    def test_single_degree_three_term(self, line16):
        xi = gaussian_limit_series([[0.2]], line16).series
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

    def test_bound_at_the_noise_floor_is_refused(self):
        # C > 0, but the bounds from n = 10^5 on are at most 1e-12, where an l1
        # anywhere below the noise floor would pass: the first such n is named
        spec = {"kind": "coefficients", "coeffs": [1.0, 0.0, 0.1, 0.05, 0, 0, 0, 0, 0]}
        config = _config_for(spec, [4, 10**4, 10**5, 10**6], space=(1, 8), alpha=1e-6)
        density = _config_density(config)
        c = rate_constant(density, 1e-6).c
        assert c / math.sqrt(10**4) > NOISE_FLOOR >= c / math.sqrt(10**5)
        with pytest.raises(ConfigError, match=r"alpha 1e-06 is too small: the bound at n=100000 "):
            rate_sweep(config, density)

    def test_underflowing_scale_is_not_a_zero_constant(self, line16):
        # at alpha = 1e-300 every lam**k with k >= 3 is 0, so the tail would
        # read 0 for any density; only a true fixed point may report C = 0
        with pytest.raises(ConfigError, match="alpha 1e-300 is too small"):
            rate_constant(corpus_line_density(line16), 1e-300)
        xi = gaussian_limit_series([[0.2]], line16).series
        assert rate_constant(xi, 1e-300).c == 0.0

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
    # the density's vector on its space; for a product_hermite density the
    # formed product of its axis series, which the general route sweeps
    density = resolve_density(config.density, *config.space_shape())
    if density.kind == "product_hermite":
        return axis_product(density.vector.coeffs, GaussianSpace(*config.space_shape()))
    return density.vector


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
        report = audit_density(f)
        built = []
        real = basis._fill

        def counting(one_d, x, pure, table, bound):
            built.append(x.shape[1])
            real(one_d, x, pure, table, bound)

        monkeypatch.setattr(basis, "_fill", counting)
        table, _ = rate_sweep(config, density=f, report=report)
        # 20,000 common samples in chunks of the split's size, shared by all
        # three rows
        chunk = f.space.split().chunk
        full = 20_000 // chunk
        assert len(table.rows) == 3
        assert built == [chunk] * full + [20_000 - full * chunk]

    def test_fills_per_chunk_do_not_depend_on_rows(self, monkeypatch):
        # Above d = 1 every chunk fills one head and one tail table, shared
        # by all rows: a sweep of one row and one of three fill alike.
        import wickllt.basis as basis
        from wickllt.audit import audit_density

        density = {"kind": "product_hermite", "axis_coeffs": [1.0, 0.0, 0.1, 0.03]}
        real = basis._fill
        fills = []

        def counting(one_d, x, pure, table, bound):
            # x holds one coordinate per row and one point per column
            fills.append(x.shape)
            real(one_d, x, pure, table, bound)

        per_sweep = []
        for n_values in ([4], [4, 16, 64]):
            config = _config_for(density, n_values, space=(3, 6), method="mc")
            f = _config_density(config)
            report = audit_density(f)
            fills.clear()
            with monkeypatch.context() as patch:
                patch.setattr(basis, "_fill", counting)
                table, _ = rate_sweep(config, density=f, report=report)
            assert len(table.rows) == len(n_values)
            per_sweep.append(list(fills))
        chunk = f.space.split().chunk
        full = 20_000 // chunk
        chunks = [chunk] * full + [20_000 - full * chunk]
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
        report = audit_density(f)
        rows = []

        def measured(fs, g, spec=None, seed=0):
            rows.extend(fs)
            return [harness.DistanceResult(0.0, 0.0) for _ in fs]

        monkeypatch.setattr(harness, "l1_distances", measured)
        rate_sweep(config, density=f, report=report)
        for n, row in zip(ns, rows, strict=True):
            alone = sum_density(f, n, config.alpha)
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

    def test_sweep_frees_the_pair_table(self):
        config = _config_for(
            {"kind": "coefficients", "terms": [{"index": [2], "coeff": 0.1}]}, [4, 16]
        )
        f = _config_density(config)
        before = wick_product(f, f)
        rate_sweep(config, f)
        assert "pair_table" not in f.space._cache
        # a later product builds the table again, with the same result
        assert np.array_equal(wick_product(f, f).coeffs, before.coeffs)

    def test_bound_violation_fails_loudly(self, monkeypatch):
        config = _config_for(
            {"kind": "coefficients", "terms": [{"index": [2], "coeff": 0.1}]},
            [4],
        )
        import wickllt.harness as harness

        # rate_sweep computes its constant from the centered density and
        # limit series it builds once, through the helper behind rate_constant
        real = harness._rate_constant

        def broken(*args):
            result = real(*args)
            return type(result)(result.c * 1e-9, result.n0, result.beta, result.tail_sum)

        monkeypatch.setattr(harness, "_rate_constant", broken)
        with pytest.raises(BoundViolationError) as info:
            rate_sweep(config, _config_density(config))
        assert info.value.rows and info.value.table is not None



class TestProductRoute:
    """A product_hermite sweep runs its algebra on the axis series in
    GaussianSpace(1, K), takes C from one-axis masses and measures its rows
    and target through Hermite power sums (eval_axis_products), building no
    d-space. The independent reference is the general route at d <= 5: the
    formed product (axis_product) swept as a bare vector, whose distances run
    through eval_stacked."""

    def _sweep(self, monkeypatch, config, density, space):
        # the table, rows and target of a sweep (the product route's one-axis
        # series formed on space here, in the test), the dimensions of the
        # spaces whose pair table it built and of every space it built
        import wickllt.harness as harness
        import wickllt.wick as wick

        seen, tables, built = {}, [], []
        real_distances, real_products = harness.l1_distances, harness.eval_axis_products
        real_table, real_init = wick._pair_table, GaussianSpace.__post_init__

        def recording(fs, g, spec=None, seed=0):
            seen.update(rows=list(fs), target=g)
            return real_distances(fs, g, spec, seed)

        def products(axes, dimension, points, out=None):
            seen.update(axes=axes)
            return real_products(axes, dimension, points, out)

        def table(at):
            tables.append(at.dimension)
            return real_table(at)

        def init(at):
            built.append(at.dimension)
            real_init(at)

        with monkeypatch.context() as patch:
            patch.setattr(harness, "l1_distances", recording)
            patch.setattr(harness, "eval_axis_products", products)
            patch.setattr(wick, "_pair_table", table)
            patch.setattr(GaussianSpace, "__post_init__", init)
            result, _ = rate_sweep(config, density)
        if "axes" in seen:
            formed = [axis_product(a, space) for a in seen["axes"]]
            seen.update(rows=formed[:-1], target=formed[-1])
        return result, seen["rows"], seen["target"], set(tables), built, seen.get("axes")

    @pytest.mark.parametrize(
        "axis, space, distance",
        [
            ([1.0, 0.0, 0.1], (2, 8), {"method": "quadrature"}),
            ([1.0, 0.2, 0.1, 0.02], (3, 8), {"method": "mc", "samples": 4000}),
            ([1.0, 0.0, 0.1, 0.02], (5, 14), {"method": "mc", "samples": 2000}),
        ],
        ids=["d2_quadrature", "d3_mean", "llt_wick_d5"],
    )
    def test_matches_the_general_route(self, monkeypatch, axis, space, distance):
        spec = {"kind": "product_hermite", "axis_coeffs": axis}
        config = _config_for(spec, [4**k for k in range(1, 10)], space=space, distance=distance)
        density = resolve_density(config.density, *space)
        assert density.kind == "product_hermite" and density.shape == space
        formed = axis_product(density.vector.coeffs, GaussianSpace(*space))
        product, rows, target, tables, built, axes = self._sweep(monkeypatch, config, density, formed.space)
        general, ref_rows, ref_target, ref_tables, *_ = self._sweep(monkeypatch, config, formed, None)
        # no d-space pair table, nor any space above d = 1, on the product
        # route; the general route builds the table
        assert tables == {1} and set(built) <= {1}
        assert ref_tables == {space[0]}
        assert product.power_ladder["dimension"] == 1
        assert general.power_ladder["dimension"] == space[0]
        scale = formed.norm()
        for got, want in zip(rows + [target], ref_rows + [ref_target], strict=True):
            assert got.space is want.space is formed.space
            assert np.abs(got.coeffs - want.coeffs).max() <= 1e-14 * scale
        assert product.constant == pytest.approx(general.constant, rel=1e-14, abs=0.0)

        def parting(points, out):
            # where eval_axis_products and eval_stacked part on the same formed
            # rows at the sweep's own points: the roundoff of another route
            pts = points if isinstance(points, np.ndarray) else np.vstack(list(points))
            eval_axis_products(axes, space[0], pts, out)
            return np.subtract(out, eval_stacked([a - target for a in rows], pts), out=out)

        seed = child_seed(config.seed, STREAM_DISTANCE)
        partings = _distances(parting, len(rows), space, 2048, config.distance, seed)
        for got, want, a, b, part in zip(product.rows, general.rows, rows, ref_rows, partings, strict=True):
            # 1e-12 relative, or what the rows' own roundoff allows: a distance
            # moves by at most ||a - b||_2 (Cauchy-Schwarz; exactly so on a
            # quadrature rule, which integrates (a - b)^2), and err, the gap of
            # two distances, by twice that. Both also move by the values'
            # roundoff: l1 by its mean or quadrature sum, part.value; err on the
            # quadrature route by its sums on both grids, coarse + fine <= 2 fine
            # + |fine - coarse|, and on the Monte-Carlo route by its RMS /
            # sqrt(N - 1) <= 2 x its mean
            slack = (a - b).norm()
            assert part.value <= 4 * np.finfo(float).eps * scale  # roundoff, not a fault
            assert abs(got.l1 - want.l1) <= 1e-12 * want.l1 + slack + part.value
            roundoff = 2 * part.value + part.error
            assert abs(got.error - want.error) <= 1e-12 * want.error + 2 * slack + roundoff

    def test_distance_phase_holds_out_and_chunks(self):
        # dimension_sweep_d4's size: (4, 8), four rows and the target at 20,000
        # points. Beyond out, the (V - 1, n) differences, the phase holds per
        # chunk of m points O((K + 1)(V + d) m) values: the draws and their
        # transposed copy, the Hermite table and its scratch row or the power
        # sums, the log and exponential coefficients, and the values; never a
        # V x n array.
        from wickllt.basis import power_sum_chunk

        d, degree, total, count = 4, 8, 20_000, 5
        axes = np.zeros((count, degree + 1))
        axes[:, 0], axes[:, 2], axes[:, 3] = 1.0, 0.1 + 0.01 * np.arange(count), 0.02
        spec = DistanceConfig(method="mc", samples=total)
        chunk = power_sum_chunk(d, degree)

        def phase():
            evaluate = lambda pts, out: eval_axis_products(axes, d, pts, out)  # noqa: E731
            return _distances(evaluate, count - 1, (d, degree), chunk, spec, 5)

        want = phase()  # the quadrature rule behind the log series is built untraced
        tracemalloc.start()
        try:
            got = phase()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        table = (degree + 1) * d + max(d, degree + 1)  # Hermite table, then scratch row or sums
        coefficients = (degree + 1) + degree * count + (degree + 1) * count + 2 * count
        # two chunks of draws (the next is drawn while the last is held) and a
        # transposed copy, the larger of the two phases of a chunk
        floats = (count - 1) * total + (3 * d + max(table, coefficients)) * chunk
        # the slack is below a V x n array (800 KB) and a (K + 1, V, chunk) stack
        assert peak <= 8 * floats + 64 * 1024


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

    def test_nonpositive_prediction_is_refused(self, line16):
        # no positive mass to normalize the CDF by: an error, not a NaN statistic
        values = np.random.default_rng(5).standard_normal(100)
        with pytest.raises(DensityValidationError, match="no positive mass"):
            ks_against_density(values, -unit_density(line16))

    @pytest.mark.parametrize("seed", range(20))
    def test_injected_error_caught_at_the_smallest_sample(self, seed):
        # 1,000 draws is the fewest a validate config takes
        results = run_identity_suite(seed=seed, inject_error="empirical_convolution", ks_samples=1000)
        assert not results["empirical_convolution"].passed

    def test_stored_kolmogorov_point_matches_scipy(self):
        assert KOLMOGOROV_1PCT == float(special.kolmogi(0.01))

    def test_dimension_restriction(self, plane8):
        with pytest.raises(ValueError, match="one-dimensional"):
            empirical_convolution_check(
                unit_density(plane8), unit_density(plane8), (0.5, 0.5), samples=100
            )


def gram_worst(space: GaussianSpace, mutate: bool) -> float:
    """The orthogonality deviation as one Gram product: row p of basis is the
    unit vector at the rank of indices[p], and the Gram matrix must be
    diag(alpha!). The reference of the O(size) check, for small spaces."""
    basis = np.zeros((space.size, space.size))
    basis[np.arange(space.size), space.positions(space.indices)] = 1.0
    left = basis * space.factorials
    if mutate:
        left[-1] = -left[-1]
    gram = left @ basis.T
    gram[np.diag_indices(space.size)] -= space.factorials
    return float(np.abs(gram).max())


class TestOrthogonalityCheck:
    @pytest.mark.parametrize("mutate", [False, True])
    @pytest.mark.parametrize("d, k", [(1, 8), (2, 8), (3, 6), (4, 5)])
    def test_equals_the_gram_on_the_tables(self, d, k, mutate):
        space = GaussianSpace(d, k)
        got = _check_orthogonality(space, None, mutate)
        assert got.measured == gram_worst(space, mutate)
        assert got.passed is not mutate

    @pytest.mark.parametrize("mutate", [False, True])
    @pytest.mark.parametrize("duplicated", [False, True])
    @pytest.mark.parametrize("d, k", [(1, 8), (2, 4), (3, 3)])
    def test_equals_the_gram_on_wrong_ranks(self, monkeypatch, d, k, duplicated, mutate):
        # a ranking that permutes the table, or sends two rows to one rank
        space = GaussianSpace(d, k)
        rng = np.random.default_rng(d * 100 + k)
        for _ in range(20):
            if duplicated:
                ranks = rng.integers(0, space.size, space.size)
            else:
                ranks = rng.permutation(space.size)
            monkeypatch.setattr(GaussianSpace, "positions", lambda self, indices: ranks)
            assert _check_orthogonality(space, None, mutate).measured == gram_worst(space, mutate)

    def test_holds_a_few_megabytes_at_8_8(self):
        # 12,870 functions: the Gram product held four arrays of 1.3 GB each
        space = GaussianSpace(8, 8)
        tracemalloc.start()
        try:
            result = _check_orthogonality(space, None, False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.passed and result.measured == 0.0
        assert peak < 4e6
