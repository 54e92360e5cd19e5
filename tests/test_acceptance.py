"""Acceptance suite: every release criterion, one test per criterion.

Each test prints one PASS/FAIL line with the measured quantities. Runtime
limits are asserted where a criterion carries one. The d=8 drift-measure
sweep is shared between the rate criterion and the path-space criterion
through a session fixture.
"""

import json
import math
import time

import numpy as np
import pytest

from wickllt.audit import variance_pairing
from wickllt.basis import (
    ChaosVector,
    GaussianSpace,
    basis_vector,
    chaos_inner,
    eval_many,
)
from wickllt.cli import main as cli_main
from wickllt.config import load_config, resolve_density
from wickllt.harness import empirical_convolution_check, rate_sweep, young_check
from wickllt.limit_density import (
    gaussian_limit_closed_form,
    gaussian_limit_series,
    limit_l2_norms,
    pointwise_tail_bound,
    self_similarity_defect,
)
from wickllt.measures import rank_one_closed_form, shift_mixture
from wickllt.quadrature import tensor_grid
from wickllt.sde import drift_from_config, simulate_drift_shifts
from wickllt.wick import gamma, s_transform, stochastic_exponential, wick_product

from helpers import sha256_file

MASTER_SEED = 20250811


def report(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {num:02d} ({label}): {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num:02d} {label}: {detail}"


def random_low_degree(space, rng, max_degree=4, scale=0.3):
    coeffs = np.where(space.degrees <= max_degree, scale * rng.standard_normal(space.size), 0.0)
    return ChaosVector(space, coeffs)


def write_config(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


CORPUS_D1 = {
    "schema_version": 1,
    "seed": MASTER_SEED,
    "space": {"dimension": 1, "max_degree": 16},
    "density": {
        "kind": "coefficients",
        "terms": [{"index": [2], "coeff": 0.1}, {"index": [3], "coeff": 0.05}],
    },
    "alpha": 0.5,
    "n_values": [4, 16, 64, 256],
    "distance": {"method": "quadrature"},
}

CORPUS_D2 = {
    "schema_version": 1,
    "seed": MASTER_SEED,
    "space": {"dimension": 2, "max_degree": 12},
    "density": {
        "kind": "shift_mixture",
        "weights": [0.5, 0.5],
        "shifts": [[0.4, 0.2], [-0.4, -0.2]],
    },
    "alpha": 0.5,
    "n_values": [4, 16, 64, 256],
    "distance": {"method": "quadrature"},
}

CORPUS_D8 = {
    "schema_version": 1,
    "seed": MASTER_SEED,
    "space": {"dimension": 8, "max_degree": 8},
    "alpha": 0.5,
    "n_values": [4, 16, 64, 256],
    "distance": {"method": "mc", "samples": 20000},
}


def config_from(data, tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "config.json"
    path.write_text(json.dumps(data))
    return load_config(path)


@pytest.fixture(scope="session")
def d8_sweep(tmp_path_factory):
    # the density of the drift measure of 0.5 sin over 8 steps, 10^4 paths
    config = config_from(CORPUS_D8, tmp_path_factory)
    drift = drift_from_config({"kind": "scaled_sin", "scale": 0.5})
    start = time.perf_counter()
    shifts = simulate_drift_shifts(drift, 8, 10000, seed=MASTER_SEED).measure
    table, audit = rate_sweep(config, shift_mixture(shifts, config.build_space()))
    return {"table": table, "audit": audit, "seconds": time.perf_counter() - start}


def test_criterion_01_identity_suite():
    start = time.perf_counter()
    worst = 0.0
    # orthogonality, exhaustive over the d=3, K=6 table and the d=2, K=8 table
    for space in (GaussianSpace(3, 6), GaussianSpace(2, 8)):
        for p in range(space.size):
            f = basis_vector(space, space.indices[p])
            for q in range(p, space.size):
                g = basis_vector(space, space.indices[q])
                expected = space.factorials[p] if p == q else 0.0
                worst = max(worst, abs(chaos_inner(f, g) - expected))
    # functor property, exponential group law, S-transform factorization,
    # scaling contraction on random draws in d = 3, K = 8
    space = GaussianSpace(3, 8)
    rng = np.random.default_rng(MASTER_SEED)
    for _ in range(20):
        f = random_low_degree(space, rng)
        g = random_low_degree(space, rng)
        for lam in (0.0, 0.3, 1.0):
            left = gamma(lam, wick_product(f, g))
            right = wick_product(gamma(lam, f), gamma(lam, g))
            worst = max(worst, float(np.abs(left.coeffs - right.coeffs).max()))
        h = 0.5 * rng.standard_normal(3)
        ell = 0.5 * rng.standard_normal(3)
        prod = wick_product(
            stochastic_exponential(h, space), stochastic_exponential(ell, space)
        )
        worst = max(
            worst,
            float(np.abs(prod.coeffs - stochastic_exponential(h + ell, space).coeffs).max()),
        )
        point = np.full(3, 0.3)
        fg = wick_product(f, g)
        worst = max(
            worst, abs(s_transform(fg, point) - s_transform(f, point) * s_transform(g, point))
        )
        for lam in (0.25, 0.8, 1.0):
            worst = max(worst, gamma(lam, f).norm() - f.norm())
    elapsed = time.perf_counter() - start
    report(
        1,
        "identity suite",
        worst <= 1e-10 and elapsed < 10.0,
        f"(max coefficient error {worst:.3e} <= 1e-10, {elapsed:.1f}s < 10s)",
    )


def test_criterion_02_self_similarity():
    start = time.perf_counter()
    cases = [
        (np.array([[0.2]]), GaussianSpace(1, 12)),
        (np.array([[0.2, 0.1], [0.1, 0.15]]), GaussianSpace(2, 12)),
    ]
    worst = 0.0
    for g, space in cases:
        for n in (2, 3, 5, 10):
            worst = max(worst, self_similarity_defect(g, n, space))
    elapsed = time.perf_counter() - start
    report(
        2,
        "sum fixed point",
        worst <= 1e-10 and elapsed < 30.0,
        f"(max coefficient deviation {worst:.3e} <= 1e-10, {elapsed:.1f}s < 30s)",
    )


def test_criterion_03_series_vs_closed_form():
    cases = [
        (np.array([[0.05]]), GaussianSpace(1, 16)),
        (np.array([[0.1]]), GaussianSpace(1, 16)),
        (np.array([[0.05, 0.015], [0.015, 0.035]]), GaussianSpace(2, 16)),
    ]
    worst_rel = 0.0
    dominated = True
    for g, space in cases:
        assert 2.0 * np.abs(np.linalg.eigvalsh(g)).max() <= 0.5
        density = gaussian_limit_series(g, space)
        grid = tensor_grid(space.dimension, 41, 3.0)
        series_vals = eval_many(density.series, grid)
        closed_vals = gaussian_limit_closed_form(g, grid)
        residual = np.abs(series_vals - closed_vals)
        worst_rel = max(worst_rel, float((residual / np.abs(closed_vals)).max()))
        bounds = np.array([pointwise_tail_bound(g, w, 16) for w in grid])
        dominated = dominated and bool(np.all(residual <= bounds))
    report(
        3,
        "limit series vs closed form",
        worst_rel <= 1e-6 and dominated,
        f"(max relative error {worst_rel:.3e} <= 1e-6, tail bound dominates: {dominated})",
    )


def test_criterion_04_norm_triple():
    space = GaussianSpace(1, 24)
    density = gaussian_limit_series([[0.3]], space)
    norms = limit_l2_norms(density)
    within_tail = abs(norms.series_value - norms.determinant_value) <= density.l2_tail_sq + 1e-12
    rank_one_equal = abs(norms.determinant_value - norms.scalar_frobenius_value) <= 1e-8
    norms2 = limit_l2_norms(gaussian_limit_series(np.diag([0.3, 0.3]), GaussianSpace(2, 24)))
    strict = norms2.determinant_value < norms2.scalar_frobenius_value
    report(
        4,
        "limit norm triple",
        within_tail and rank_one_equal and strict,
        f"(series {norms.series_value:.10f} vs eigenproduct {norms.determinant_value:.10f} "
        f"within tail {density.l2_tail_sq:.2e}; rank-one gap "
        f"{abs(norms.determinant_value - norms.scalar_frobenius_value):.2e} <= 1e-8; "
        f"strict inequality {norms2.determinant_value:.5f} < {norms2.scalar_frobenius_value:.5f})",
    )


def test_criterion_05_rank_one_closed_form():
    cases = [
        (np.array([math.sqrt(0.1)]), GaussianSpace(1, 20), tensor_grid(1, 41, 3.0)),
        (np.array([0.2, 0.2]), GaussianSpace(2, 20), tensor_grid(2, 21, 3.0)),
    ]
    worst = 0.0
    for g, space, grid in cases:
        assert 2.0 * float(g @ g) <= 0.5
        series = gaussian_limit_series(np.outer(g, g), space).series
        closed = rank_one_closed_form(g, grid)
        worst = max(worst, float((np.abs(eval_many(series, grid) - closed) / closed).max()))
    report(
        5,
        "rank-one quadratic exponential",
        worst <= 1e-6,
        f"(max relative error {worst:.3e} <= 1e-6 at K=20)",
    )


def _check_rate_table(table):
    values = [row.l1 for row in table.rows]
    bound_ok = all(row.l1 <= row.bound + row.error + 1e-12 for row in table.rows)
    monotone = all(b >= a for a, b in zip(values[1:], values))
    slope = math.log(values[-1] / values[0]) / math.log(table.rows[-1].n / table.rows[0].n)
    return bound_ok, monotone, slope, values


def test_criterion_06_rate_corpus(tmp_path_factory, d8_sweep):
    start = time.perf_counter()
    results = {}
    for label, raw in (("d1", CORPUS_D1), ("d2", CORPUS_D2)):
        config = config_from(raw, tmp_path_factory)
        table, _ = rate_sweep(config, resolve_density(config.density, config.build_space()))
        results[label] = _check_rate_table(table)
    results["d8"] = _check_rate_table(d8_sweep["table"])
    elapsed = time.perf_counter() - start + d8_sweep["seconds"]
    ok = elapsed < 300.0
    detail = []
    for label, (bound_ok, monotone, slope, values) in results.items():
        ok = ok and bound_ok and monotone and slope <= -0.35
        detail.append(f"{label}: slope {slope:.2f}, l1 {values[0]:.2e}->{values[-1]:.2e}")
    report(6, "rate sweep corpus", ok, f"({'; '.join(detail)}; {elapsed:.0f}s < 300s)")


def test_criterion_07_convolution_identity_ks():
    space = GaussianSpace(1, 16)
    one = ChaosVector(space, np.r_[1.0, np.zeros(space.size - 1)])
    shifted = stochastic_exponential([0.4], space)
    c = np.zeros(space.size)
    c[0] = 1.0
    c[space.position((2,))] = 0.1
    quad = ChaosVector(space, c)
    pairs = [("1,1", one, one), ("E(0.4),1", shifted, one), ("q,q", quad, quad)]
    ok = True
    detail = []
    for idx, (label, f, g) in enumerate(pairs):
        result = empirical_convolution_check(
            f, g, (0.5, 0.5), samples=100_000, seed=MASTER_SEED + idx
        )
        ok = ok and result.passed
        detail.append(f"{label}: KS {result.ks_statistic:.4f} < {result.critical_value:.4f}")
    report(7, "weighted-sum density sampling", ok, f"({'; '.join(detail)})")


def test_criterion_08_product_norm_inequality():
    rng = np.random.default_rng(MASTER_SEED + 8)
    space = GaussianSpace(2, 10)
    min_slack = math.inf
    violations = 0
    for _ in range(50):
        f = random_low_degree(space, rng)
        g = random_low_degree(space, rng)
        a = rng.random()
        result = young_check([f, g], [a, 1.0 - a])
        min_slack = min(min_slack, result.slack)
        violations += 0 if result.holds else 1
    # corpus densities at equal weights
    corpus_space = GaussianSpace(1, 16)
    c = np.zeros(corpus_space.size)
    c[0] = 1.0
    c[corpus_space.position((2,))] = 0.1
    c[corpus_space.position((3,))] = 0.05
    corpus = [
        ChaosVector(corpus_space, c),
        stochastic_exponential([0.4], corpus_space),
        gaussian_limit_series([[0.2]], corpus_space).series,
    ]
    for f in corpus:
        for g in corpus:
            result = young_check([f, g], [0.5, 0.5])
            min_slack = min(min_slack, result.slack)
            violations += 0 if result.holds else 1
    report(
        8,
        "product norm inequality",
        violations == 0,
        f"(0 violations in 59 checks, min slack {min_slack:.3e})",
    )


def test_criterion_09_variance_identity():
    rng = np.random.default_rng(MASTER_SEED + 9)
    worst = 0.0
    for trial in range(100):
        d = 1 + trial % 2
        space = GaussianSpace(d, 8)
        f = random_low_degree(space, rng, max_degree=6)
        c = f.coeffs.copy()
        c[0] = 1.0
        f = ChaosVector(space, c)
        h = rng.standard_normal(d)
        h += np.sign(h) * 0.5  # keep |h| away from zero for the relative error
        result = variance_pairing(f, h)
        worst = max(
            worst,
            abs(result.quadrature_value - result.formula_value) / abs(result.formula_value),
        )
    report(
        9,
        "variance identity",
        worst <= 1e-8,
        f"(max relative deviation {worst:.3e} <= 1e-8 over 100 draws)",
    )


def test_criterion_10_path_space_pipeline(d8_sweep):
    half = drift_from_config({"kind": "constant", "value": 0.5})
    draw = simulate_drift_shifts(half, 8, 1024, seed=MASTER_SEED)
    nov, energy = draw.novikov, draw.energy
    # the moment is read off the shifts, whose squares carry the rounding of sqrt(dt)
    exact = (
        abs(nov.estimate / math.exp(0.125) - 1.0) <= 1e-15
        and nov.standard_error == 0.0
        and energy.estimate == 0.25
        and energy.standard_error == 0.0
    )
    sin_drift = drift_from_config({"kind": "scaled_sin", "scale": 0.5})
    sin_energy = simulate_drift_shifts(sin_drift, 8, 10_000, seed=MASTER_SEED).energy
    gate = sin_energy.estimate + 3.0 * sin_energy.standard_error < 1.0
    bound_ok, monotone, slope, _ = _check_rate_table(d8_sweep["table"])
    report(
        10,
        "path-space pipeline",
        exact and gate and bound_ok,
        f"(constant drift: exponential moment e^(1/8) to 1e-15, energy 0.25 exact; "
        f"sin drift energy {sin_energy.estimate:.4f} + 3SE < 1; "
        f"drift-measure sweep bound holds: {bound_ok})",
    )


def test_criterion_11_determinism(tmp_path):
    raw = dict(CORPUS_D1)
    raw["n_values"] = [4, 16]
    raw["distance"] = {"method": "mc", "samples": 6000}
    cfg = write_config(tmp_path, "llt.json", raw)
    digests = []
    for run in ("r1", "r2", "r3"):
        out = tmp_path / run
        assert cli_main(["llt", "--config", str(cfg), "--out", str(out)]) == 0
        digests.append((sha256_file(out / "rate.csv"), sha256_file(out / "summary.json")))
    llt_ok = digests[0] == digests[1] == digests[2]

    sde_raw = {
        "schema_version": 1,
        "seed": MASTER_SEED,
        "sde": {
            "drift": {"kind": "scaled_sin", "scale": 0.5},
            "steps": 4,
            "paths": 2000,
            "max_degree": 6,
        },
    }
    sde_cfg = write_config(tmp_path, "sde.json", sde_raw)
    sde_digests = []
    for run in ("s1", "s2"):
        out = tmp_path / run
        assert cli_main(["sde", "--config", str(sde_cfg), "--out", str(out)]) == 0
        sde_digests.append(
            (
                sha256_file(out / "sde_report.json"),
                sha256_file(out / "density.json"),
                sha256_file(out / "shifts.json"),
                sha256_file(out / "shifts.f64"),
            )
        )
    sde_ok = sde_digests[0] == sde_digests[1]
    report(
        11,
        "byte-identical reruns",
        llt_ok and sde_ok,
        f"(rate artifacts identical across three reruns: {llt_ok}; "
        f"path-space artifacts identical: {sde_ok})",
    )
