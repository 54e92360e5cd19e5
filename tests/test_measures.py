import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

import wickllt.basis as basis
from wickllt.audit import AssumptionViolationError, audit_density
from wickllt.basis import ChaosVector, GaussianSpace, eval_many, kernel_view
from wickllt.limit_density import gaussian_limit_series, limit_l2_norms
from wickllt.measures import (
    DensityValidationError,
    WeightedShifts,
    grid_cdf,
    rank_one_closed_form,
    sample,
    shift_mixture,
)
from wickllt.serialize import dumps_canonical
from wickllt.streams import STREAM_SAMPLER, substream

from conftest import unit_density


class TestWeightedShifts:
    def test_validation(self):
        with pytest.raises(ValueError, match="sum"):
            WeightedShifts([0.5, 0.4], [[0.1], [0.2]])
        with pytest.raises(ValueError, match="nonnegative"):
            WeightedShifts([1.5, -0.5], [[0.1], [0.2]])

    def test_exponential_integrability(self):
        nu = WeightedShifts([0.5, 0.5], [[0.4], [-0.4]])
        assert nu.exponential_integrability() == pytest.approx(math.exp(0.08))

    def test_shift_variance(self):
        nu = WeightedShifts([0.5, 0.5], [[0.4], [-0.4]])
        assert nu.shift_variance_total() == pytest.approx(0.16)

    def test_json_round_trip(self):
        # the arrays go to canonical JSON whole, a block of rows per format
        # call, and come back exactly: one row, one column, and 10^3 rows
        rng = np.random.default_rng(12)
        measures = [WeightedShifts([0.25, 0.75], [[0.1, 0.2], [-0.3, 0.05]])]
        extra = (np.ones((1, 4)), rng.standard_normal((5, 1)), rng.standard_normal((1000, 8)) / 3)
        for shifts in extra:
            weights = rng.random(len(shifts))
            measures.append(WeightedShifts(weights / weights.sum(), shifts))
        for nu in measures:
            text = dumps_canonical({"weights": nu.weights, "shifts": nu.shifts})
            back = WeightedShifts(**json.loads(text))
            assert np.array_equal(back.weights, nu.weights)
            assert np.array_equal(back.shifts, nu.shifts)
            assert dumps_canonical({"weights": back.weights, "shifts": back.shifts}) == text


class TestShiftMixture:
    def test_single_zero_shift(self, line16):
        nu = WeightedShifts([1.0], [[0.0]])
        assert np.array_equal(shift_mixture(nu, line16).coeffs, unit_density(line16).coeffs)

    def test_symmetric_pair_coefficients(self, line16):
        nu = WeightedShifts([0.5, 0.5], [[0.4], [-0.4]])
        mix = shift_mixture(nu, line16)
        assert mix.coeffs[line16.position((1,))] == 0.0
        assert mix.coeffs[line16.position((2,))] == pytest.approx(0.08)

    def test_easy_sufficient_condition_value(self):
        nu = WeightedShifts([0.5, 0.5], [[0.4], [-0.4]])
        assert nu.shift_variance_total() == pytest.approx(0.16)
        assert nu.shift_variance_total() < 1.0

    def test_kernel_identities_on_random_mixtures(self, plane12):
        rng = np.random.default_rng(17)
        for _ in range(10):
            m = rng.integers(2, 6)
            w = rng.random(m)
            w /= w.sum()
            shifts = 0.5 * rng.standard_normal((m, 2))
            nu = WeightedShifts(w, shifts)
            mix = shift_mixture(nu, plane12)
            view = kernel_view(mix)
            mean = w @ shifts
            assert np.allclose(view.mean, mean, atol=1e-12)
            second = (shifts.T * w) @ shifts
            expected_g = 0.5 * (second - np.outer(mean, mean))
            assert np.allclose(view.g2, expected_g, atol=1e-12)
            assert np.linalg.eigvalsh(expected_g).min() >= -1e-12

    def test_passes_audit_under_easy_condition(self, plane12):
        nu = WeightedShifts([0.5, 0.5], [[0.4, 0.2], [-0.4, -0.2]])
        assert nu.shift_variance_total() < 1.0
        report = audit_density(shift_mixture(nu, plane12))
        assert report.all_passed

    def test_chunking_consistent(self, monkeypatch):
        # a space's split reads MAX_CHUNK once, when it is built
        rng = np.random.default_rng(18)
        shifts = 0.3 * rng.standard_normal((40, 2))
        w = np.full(40, 1.0 / 40)
        nu = WeightedShifts(w, shifts)
        mixtures = []
        for chunk in (7, 512):
            monkeypatch.setattr(basis, "MAX_CHUNK", chunk)
            space = GaussianSpace(2, 6)
            assert space.split().chunk == chunk
            mixtures.append(shift_mixture(nu, space))
        a, b = mixtures
        assert np.allclose(a.coeffs, b.coeffs, atol=1e-15)

    def test_matches_np_power_at_d8(self):
        # 10^4 atoms at (8, 8), the space of sde_sin_d8: powers by repeated
        # multiplication, summed in chunks of split.chunk atoms, against every
        # power by np.power and each monomial as the product of its head and
        # tail part, summed in chunks of 1,000 atoms
        space = GaussianSpace(8, 8)
        half = space.split().head
        rng = np.random.default_rng(26)
        w = rng.random(10_000)
        nu = WeightedShifts(w / w.sum(), 0.3 * rng.standard_normal((10_000, 8)))
        sums = np.zeros((half.size, half.size))
        for start in range(0, nu.count, 1000):
            x = nu.shifts[start : start + 1000].T
            head, tail = (
                np.prod(np.power(part[None], half.indices[:, :, None]), axis=1)
                for part in (x[:4], x[4:])
            )
            sums += (head * nu.weights[start : start + 1000]) @ tail.T
        ref = sums[half.positions(space.indices[:, :4]), half.positions(space.indices[:, 4:])]
        ref = ref / ref[0] / space.factorials
        got = shift_mixture(nu, space).coeffs
        assert np.all(np.abs(got - ref) <= 1e-15 * np.abs(ref).max())

    def test_matches_parent_recursion(self):
        # Reference: the full-space loop the head/tail split replaced, h^alpha
        # by one multiply per row from the index with its first nonzero
        # coordinate decremented, in chunks of 512 atoms. 3,000 atoms cross
        # the 2,048-atom chunk boundary; d=5 splits unevenly (2 + 3).
        for dimension, degree in ((4, 6), (5, 5)):
            space = GaussianSpace(dimension, degree)
            rng = np.random.default_rng(23)
            shifts = 0.4 * rng.standard_normal((3000, dimension))
            w = rng.random(3000)
            nu = WeightedShifts(w / w.sum(), shifts)
            acc = np.zeros(space.size)
            for start in range(0, nu.count, 512):
                h = nu.shifts[start : start + 512]
                block = np.empty((space.size, len(h)))
                block[0] = 1.0
                for p in range(1, space.size):
                    alpha = space.indices[p].copy()
                    c = int(np.argmax(alpha > 0))
                    alpha[c] -= 1
                    block[p] = block[space.position(alpha)] * h[:, c]
                acc += block @ nu.weights[start : start + 512]
            expected = acc / acc[0] / space.factorials
            assert np.abs(shift_mixture(nu, space).coeffs - expected).max() <= 1e-15


class TestGaussianCov:
    def test_passes_audit(self, plane12):
        report = audit_density(gaussian_limit_series(np.diag([0.1, 0.2]), plane12).series)
        assert report.all_passed


def rank_one_quadratic(g, space: GaussianSpace) -> ChaosVector:
    """The limit series of the rank-one excess kernel G = g g^T."""
    g = np.asarray(g, dtype=float)
    return gaussian_limit_series(np.outer(g, g), space).series


class TestRankOneQuadratic:
    def test_zero_direction(self, line16):
        assert np.array_equal(
            rank_one_quadratic([0.0], line16).coeffs, unit_density(line16).coeffs
        )

    def test_domain_rejected(self, line16):
        # 2 |g|^2 = 1.28: the limit is not square integrable
        with pytest.raises(AssumptionViolationError, match="kernel is 1.280000 >= 1"):
            rank_one_quadratic([0.8], line16)

    def test_pointwise_match_small_direction(self):
        space = GaussianSpace(1, 20)
        g = [math.sqrt(0.1)]  # 2|g|^2 = 0.2
        series = rank_one_quadratic(g, space)
        grid = np.linspace(-3, 3, 41)[:, None]
        closed = rank_one_closed_form(g, grid)
        rel = np.abs(eval_many(series, grid) - closed) / closed
        assert rel.max() <= 1e-6

    def test_boundary_direction_converges_to_closed_form(self):
        # near the domain edge (2|g|^2 = 0.5) the series needs a deep
        # truncation; at K=40 the value at w=1 agrees to ~5e-8 relative
        space = GaussianSpace(1, 40)
        series = rank_one_quadratic([0.5], space)
        val = eval_many(series, np.array([[1.0]]))[0]
        closed = rank_one_closed_form([0.5], [1.0])
        assert closed == pytest.approx((1.5) ** -0.5 * math.exp(0.25 / 1.5), rel=1e-14)
        assert val == pytest.approx(closed, rel=1e-6)

    def test_rank_one_norm_triple_agrees(self):
        space = GaussianSpace(2, 24)
        g = np.array([0.3, 0.4])  # 2|g|^2 = 0.5, still in the domain
        norms = limit_l2_norms(gaussian_limit_series(np.outer(g, g), space))
        assert norms.determinant_value == pytest.approx(
            norms.scalar_frobenius_value, abs=1e-8
        )
        assert norms.series_value == pytest.approx(norms.determinant_value, abs=1e-8)

    def test_consistent_with_gaussian_closed_form(self):
        from wickllt.limit_density import gaussian_limit_closed_form

        g = np.array([0.3, 0.2])
        pts = np.random.default_rng(1).standard_normal((50, 2))
        a = rank_one_closed_form(g, pts)
        b = gaussian_limit_closed_form(np.outer(g, g), pts)
        assert np.allclose(a, b, rtol=1e-12)


class TestSampler:
    def test_standard_gaussian_moments(self, line16):
        draws = sample(unit_density(line16), 50_000, seed=3)
        assert abs(draws.mean()) <= 4.0 / math.sqrt(50_000)

    def test_shifted_gaussian_mean(self):
        from wickllt.wick import stochastic_exponential

        space = GaussianSpace(1, 20)
        f = stochastic_exponential([0.4], space)
        draws = sample(f, 100_000, seed=4)
        assert abs(draws.mean() - 0.4) <= 4.0 / math.sqrt(100_000)

    def test_mixture_variance(self, line16):
        nu = WeightedShifts([0.5, 0.5], [[0.4], [-0.4]])
        mix = shift_mixture(nu, line16)
        draws = sample(mix, 100_000, seed=5)[:, 0]
        target = 1.16
        se = target * math.sqrt(2.0 / 100_000)
        assert abs(draws.var() - target) <= 4 * se + 4e-3

    def test_kolmogorov_smirnov_against_quadrature_cdf(self, line16):
        c = np.zeros(line16.size)
        c[0] = 1.0
        c[line16.position((2,))] = 0.1
        f = ChaosVector(line16, c)
        draws = sample(f, 50_000, seed=6)[:, 0]
        grid = np.linspace(-9, 9, 6001)
        dens = np.clip(eval_many(f, grid[:, None]), 0, None) * stats.norm.pdf(grid)
        cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) * 0.5 * np.diff(grid))])
        cdf /= cdf[-1]
        ks = stats.ks_1samp(draws, lambda x: np.interp(x, grid, cdf)).statistic
        assert ks < stats.kstwobign.isf(0.01) / math.sqrt(50_000)

    @staticmethod
    def _plain(f, count, seed):
        # one np.interp over the unsorted uniforms
        grid, cdf = grid_cdf(f)
        return np.interp(substream(seed, STREAM_SAMPLER).random(count), cdf, grid)[:, None]

    # empty, one draw, one block less one, one block, one block and one, 13 blocks
    @pytest.mark.parametrize("count", [0, 1, 4095, 4096, 4097, 50_000])
    def test_blocks_give_the_bits_of_one_interp(self, line16, count):
        f = shift_mixture(WeightedShifts([0.5, 0.5], [[0.4], [-0.4]]), line16)
        draws = sample(f, count, seed=11)
        assert draws.shape == (count, 1)
        assert np.array_equal(draws, self._plain(f, count, 11))

    def test_peak_stays_within_one_interp(self, line16):
        f = unit_density(line16)
        peaks = []
        for draw in (self._plain, sample):
            draw(f, 10, 12)  # the space's evaluation tables are built outside the trace
            tracemalloc.start()
            try:
                draw(f, 50_000, 12)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0]

    def test_deterministic_per_seed(self, line16):
        a = sample(unit_density(line16), 1000, seed=7)
        b = sample(unit_density(line16), 1000, seed=7)
        assert np.array_equal(a, b)

    def test_nonpositive_density_is_refused(self, line16):
        with pytest.raises(DensityValidationError, match="no positive mass on the CDF grid"):
            sample(-unit_density(line16), 10)

    def test_dimension_cap(self):
        space = GaussianSpace(2, 2)
        with pytest.raises(ValueError, match="dimension"):
            sample(unit_density(space), 10)
