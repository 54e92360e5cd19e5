import importlib.util
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wickllt.basis as basis
from wickllt.audit import audit_density
from wickllt.cli import main
from wickllt.config import ConfigError, load_config, parse_config, resolve_density
from wickllt.identities import IDENTITY_NAMES
from wickllt.limit_density import LimitDensity, gaussian_limit_series
from wickllt.sde import drift_from_config, simulate_drift_shifts

from helpers import sha256_file

REPO = Path(__file__).resolve().parent.parent


def write_config(tmp_path: Path, name: str, data: dict) -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(data, indent=1))
    return path


def base_llt_config(**overrides):
    data = {
        "schema_version": 1,
        "seed": 424242,
        "space": {"dimension": 1, "max_degree": 16},
        "density": {
            "kind": "coefficients",
            "terms": [{"index": [2], "coeff": 0.1}, {"index": [3], "coeff": 0.05}],
        },
        "alpha": 0.5,
        "n_values": [4, 16],
        "distance": {"method": "quadrature"},
    }
    data.update(overrides)
    return data


def base_sde_config(**sde_overrides):
    sde = {"drift": {"kind": "zero"}, "steps": 2, "paths": 64, "max_degree": 4}
    return {"schema_version": 1, "seed": 1, "sde": {**sde, **sde_overrides}}


def base_xi_config(g2=((0.1, 0.0), (0.0, 0.1)), max_degree=4, **density_overrides):
    dimension = len(g2) if isinstance(g2, (list, tuple)) else 1
    return {
        "schema_version": 1,
        "seed": 1,
        "space": {"dimension": dimension, "max_degree": max_degree},
        "density": {"kind": "gaussian_cov", "g2": g2, **density_overrides},
    }


def base_validate_config(**overrides):
    section = {"dimension": 1, "max_degree": 4, "ks_samples": 1000, **overrides}
    return {"schema_version": 1, "seed": 1, "validate": section}


class TestAuditCommand:
    def test_unit_density_passes(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "a.json",
            {
                "schema_version": 1,
                "seed": 1,
                "space": {"dimension": 1, "max_degree": 8},
                "density": {"kind": "coefficients", "terms": []},
            },
        )
        assert main(["audit", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "audit.json").read_text())
        assert report["all_passed"] is True

    def test_bad_normalization_exits_one_and_names_check(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "a.json",
            {
                "schema_version": 1,
                "seed": 1,
                "space": {"dimension": 1, "max_degree": 8},
                "density": {"kind": "coefficients", "coeffs": [0.5] + [0.0] * 8},
            },
        )
        assert main(["audit", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "normalization" in err

    def test_mixture_reports_sufficient_condition(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "a.json",
            {
                "schema_version": 1,
                "seed": 1,
                "space": {"dimension": 1, "max_degree": 12},
                "density": {
                    "kind": "shift_mixture",
                    "weights": [0.5, 0.5],
                    "shifts": [[0.4], [-0.4]],
                },
            },
        )
        assert main(["audit", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "audit.json").read_text())
        assert report["shift_variance_total"] == pytest.approx(0.16)


class TestLltCommand:
    def test_fixed_point_distances_zero(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "c.json",
            base_llt_config(
                density={"kind": "gaussian_cov", "g2": [[0.2]]},
                space={"dimension": 1, "max_degree": 14},
                n_values=[2, 5],
            ),
        )
        assert main(["llt", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        rows = (tmp_path / "out" / "rate.csv").read_text().strip().splitlines()
        assert rows[0] == "n,l1,bound,err"
        for line in rows[1:]:
            assert float(line.split(",")[1]) <= 1e-10

    def test_corpus_run_and_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", base_llt_config())
        out = tmp_path / "out"
        assert main(["llt", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["audit"]["all_passed"] is True
        assert "audit_overridden" not in summary
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["artifact_sha256"]) == {"rate.csv", "summary.json"}
        assert manifest["library_version"]

    def test_determinism_across_threads_and_reruns(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", base_llt_config())
        digests = []
        for run in ("r1", "r2", "r3"):
            out = tmp_path / run
            assert main(["llt", "--config", str(cfg), "--out", str(out)]) == 0
            digests.append(
                (sha256_file(out / "rate.csv"), sha256_file(out / "summary.json"))
            )
        assert digests[0] == digests[1] == digests[2]

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "c.json",
            base_llt_config(distance={"method": "mc", "samples": 4000}),
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["llt", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert main(
            ["llt", "--config", str(cfg), "--out", str(out_b), "--seed", "7"]
        ) == 0
        assert sha256_file(out_a / "rate.csv") != sha256_file(out_b / "rate.csv")

    @pytest.mark.parametrize("command", ["audit", "validate", "sde", "build-xi"])
    def test_override_is_an_llt_flag(self, tmp_path, command):
        cfg = write_config(tmp_path, "s.json", base_sde_config())
        with pytest.raises(SystemExit) as info:
            main([command, "--config", str(cfg), "--out", str(tmp_path / "o"), "--override-audit"])
        assert info.value.code == 2

    @pytest.mark.parametrize(
        "dim,method",
        [(1, "quadrature"), (2, "quadrature"), (4, "mc")],
    )
    def test_dimension_sweep_product_density(self, tmp_path, dim, method):
        # the same per-axis density replicated across dimensions; the bound
        # constant and the distances come out per dimension
        distance = {"method": "mc", "samples": 10000} if method == "mc" else {"method": method}
        cfg = write_config(
            tmp_path,
            "c.json",
            base_llt_config(
                space={"dimension": dim, "max_degree": 8},
                density={"kind": "product_hermite", "axis_coeffs": [1.0, 0.0, 0.1]},
                n_values=[4, 16],
                distance=distance,
            ),
        )
        out = tmp_path / "out"
        assert main(["llt", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["constant"] > 0.0
        rows = summary["rows"]
        assert all(r["l1"] <= r["bound"] + r["err"] + 1e-12 for r in rows)

    def test_row_seconds_go_to_the_manifest(self, tmp_path):
        # rate.csv holds no time; each row's combination time is a note, and
        # so is the one ladder of Wick powers the rows share
        cfg = write_config(tmp_path, "c.json", base_llt_config(n_values=[4, 16, 64]))
        out = tmp_path / "out"
        assert main(["llt", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "rate.csv").read_text().strip().splitlines()
        assert rows[0] == "n,l1,bound,err" and len(rows) == 4
        manifest = json.loads((out / "manifest.json").read_text())
        assert [n for n, _ in manifest["notes"]["row_seconds"]] == [4, 16, 64]
        assert all(seconds > 0 for _, seconds in manifest["notes"]["row_seconds"])
        # u = 0.1 H_2 + 0.05 H_3 starts at degree 2: rungs u ... u^{<>8} at K = 16
        assert manifest["notes"]["power_ladder"]["rungs"] == 8
        assert manifest["notes"]["power_ladder"]["seconds"] > 0
        assert "power_ladder" not in (out / "summary.json").read_text()
        assert manifest["stage_wall_seconds"]["sweep"] > 0

    def test_threads_flag_is_a_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", base_llt_config())
        with pytest.raises(SystemExit) as exc:
            main(["llt", "--config", str(cfg), "--out", str(tmp_path / "o"), "--threads", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err

    def test_quadrature_at_the_node_limit_runs(self, tmp_path):
        # the largest degree takes the most nodes: 340 coarse, 680 for the
        # error estimate's fine rule
        data = base_llt_config(space={"dimension": 1, "max_degree": 170}, n_values=[4])
        cfg = write_config(tmp_path, "c.json", data)
        out = tmp_path / "out"
        assert main(["llt", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["notes"]["distance_points"] == 340 + 680


class TestManifestNotes:
    """The manifest records the sizes basis evaluation ran at; the counted
    points are those the distance stage really evaluated."""

    def _run_counting(self, monkeypatch, tmp_path, command, data, evaluation="eval_stacked"):
        # the points that harness's evaluation (eval_stacked, or eval_products
        # on the product route) really evaluated
        import wickllt.harness as harness

        points = []
        real = getattr(harness, evaluation)

        def counting(*args):
            *lead, pts, out = args  # harness passes the points and out positionally
            if isinstance(pts, np.ndarray):  # a quadrature grid
                points.append(len(pts))
                return real(*lead, pts, out)
            # the Monte-Carlo route's iterator of point chunks
            chunks = list(pts)
            points.extend(len(chunk) for chunk in chunks)
            return real(*lead, iter(chunks), out)

        monkeypatch.setattr(harness, evaluation, counting)
        cfg = write_config(tmp_path, "c.json", data)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        notes = json.loads((out / "manifest.json").read_text())["notes"]
        return notes, sum(points)

    def test_llt_quadrature_d1(self, monkeypatch, tmp_path):
        notes, points = self._run_counting(monkeypatch, tmp_path, "llt", base_llt_config())
        assert notes["basis_rows"] == {
            "head": 1, "tail": 17, "full": 17, "contracted": 1, "chunk": 2048
        }
        assert notes["distance_points"] == points == 32 + 64
        # pairs with |alpha| <= |beta|: (C(2d + K, K) + sum_a C(a + d - 1, d - 1)^2) / 2
        assert notes["pairs"] == (math.comb(2 + 16, 16) + 9) // 2 == 81
        assert notes["pair_bytes"] == 81  # 17 rows: uint8 positions

    def test_llt_mc_d3(self, monkeypatch, tmp_path):
        data = base_llt_config(
            space={"dimension": 3, "max_degree": 6},
            density={"kind": "product_hermite", "axis_coeffs": [1.0, 0.0, 0.1]},
            distance={"method": "mc", "samples": 3000},
        )
        # the product route evaluates its rows and target as products of their
        # one-axis series, and the d-space vectors at no distance point
        notes, points = self._run_counting(monkeypatch, tmp_path, "llt", data, "eval_products")
        # with no partial table, whose rows the manifest leaves out
        assert notes["basis_rows"] == {"head": 7, "tail": 28, "full": 84, "chunk": 2048}
        assert notes["distance_points"] == points == 3000
        assert self._run_counting(monkeypatch, tmp_path, "llt", data)[1] == 0
        # a product density climbs its ladder on the axis factor, in (1, 6)
        assert notes["power_ladder"]["dimension"] == 1
        assert notes["pairs"] == (math.comb(2 + 6, 6) + 4) // 2 == 16
        assert notes["pair_bytes"] == 16  # 7 rows: uint8 positions

    def test_sde_sweep(self, monkeypatch, tmp_path):
        data = {
            "schema_version": 1,
            "seed": 11,
            "alpha": 0.5,
            "n_values": [4, 16],
            "distance": {"method": "mc", "samples": 2000},
            "sde": {
                "drift": {"kind": "scaled_sin", "scale": 0.5},
                "steps": 4,
                "paths": 500,
                "max_degree": 4,
            },
        }
        notes, points = self._run_counting(monkeypatch, tmp_path, "sde", data)
        assert notes["basis_rows"] == {
            "head": 15, "tail": 15, "full": 70, "contracted": 10, "chunk": 2048
        }
        assert notes["distance_points"] == points == 2000
        assert notes["power_ladder"]["rungs"] == 2
        assert notes["power_ladder"]["dimension"] == 4
        assert notes["pairs"] == (math.comb(8 + 4, 4) + 1 + 16 + 100) // 2 == 306
        assert notes["pair_bytes"] == 306  # 70 rows: uint8 positions


class TestValidateCommand:
    def test_default_suite_passes(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "v.json",
            {
                "schema_version": 1,
                "seed": 99,
                "validate": {"dimension": 2, "max_degree": 8, "ks_samples": 20000},
            },
        )
        out = tmp_path / "out"
        assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "validate.json").read_text())
        assert report["all_passed"] is True
        assert list(report["identities"]) == sorted(IDENTITY_NAMES)

    @pytest.mark.parametrize("identity", IDENTITY_NAMES)
    def test_injected_error_detected(self, tmp_path, identity):
        # at max_degree 4 the random products reach degree 8 and are capped
        for max_degree in (4, 8):
            section = {
                "dimension": 2,
                "max_degree": max_degree,
                "ks_samples": 4000,
                "inject_error": identity,
            }
            cfg = write_config(
                tmp_path, "v.json", {"schema_version": 1, "seed": 99, "validate": section}
            )
            out = tmp_path / f"out{max_degree}"
            assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 1, max_degree
            report = json.loads((out / "validate.json").read_text())
            failing = [name for name, v in report["identities"].items() if not v["passed"]]
            assert failing == [identity], max_degree

    def test_stdout_lists_every_identity(self, tmp_path, capsys):
        # one line per identity in suite order, the injected one marked FAIL;
        # the verdict of the command itself goes to stderr
        cfg = write_config(tmp_path, "v.json", base_validate_config(inject_error="young"))
        assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert [line.split(":")[0] for line in lines] == [f"identity {n}" for n in IDENTITY_NAMES]
        assert [n for n, line in zip(IDENTITY_NAMES, lines) if ": FAIL (" in line] == ["young"]
        assert captured.err.startswith("validate: FAIL (identity suite failed: young (measured ")

    def test_large_space_loads(self):
        # no validate space is refused for its size: the orthogonality check
        # holds a few arrays of its size, not its square
        check = parse_config(base_validate_config(dimension=8, max_degree=8)).validate
        assert (check.dimension, check.max_degree) == (8, 8)

    def test_capped_products_factorize_exactly(self, tmp_path):
        # at d=2, K=4 the S-transform check compares capped products with no
        # allowance: the suite passes, and the injected error still fails it
        for inject, code in ((None, 0), ("s_transform_factorization", 1)):
            section = {"dimension": 2, "max_degree": 4, "ks_samples": 8000, "inject_error": inject}
            cfg = write_config(
                tmp_path, "v.json", {"schema_version": 1, "seed": 7, "validate": section}
            )
            out = tmp_path / f"out{code}"
            assert main(["validate", "--config", str(cfg), "--out", str(out)]) == code
            report = json.loads((out / "validate.json").read_text())
            s_result = report["identities"]["s_transform_factorization"]
            assert set(s_result) == {"passed", "measured", "threshold"}
            assert s_result["passed"] is (inject is None)


class TestSdeCommand:
    def test_zero_drift_trivial(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "s.json",
            {
                "schema_version": 1,
                "seed": 5,
                "sde": {
                    "drift": {"kind": "zero"},
                    "steps": 4,
                    "paths": 64,
                    "max_degree": 4,
                },
            },
        )
        out = tmp_path / "out"
        assert main(["sde", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "sde_report.json").read_text())
        assert report["novikov_estimate"] == 1.0
        assert report["drift_energy_estimate"] == 0.0
        density = json.loads((out / "density.json").read_text())
        assert density["coeffs"][0] == 1.0
        assert all(c == 0.0 for c in density["coeffs"][1:])
        manifest = json.loads((out / "manifest.json").read_text())
        # writing the artifacts, formatting included, is a stage of its own,
        # and each digest is that of the file on disk
        assert manifest["stage_wall_seconds"]["write"] > 0
        digests = manifest["artifact_sha256"]
        assert sorted(digests) == ["density.json", "sde_report.json", "shifts.f64", "shifts.json"]
        for name, digest in digests.items():
            assert digest == sha256_file(out / name)

    def test_shifts_are_raw_float64_rows(self, tmp_path):
        # shifts.f64 holds the draw's atoms bit for bit, one (weight, shift)
        # row per path, and shifts.json is its header
        data = base_sde_config(drift={"kind": "scaled_sin", "scale": 0.5}, steps=3, paths=50)
        cfg = write_config(tmp_path, "s.json", data)
        out = tmp_path / "out"
        assert main(["sde", "--config", str(cfg), "--out", str(out)]) == 0
        header = json.loads((out / "shifts.json").read_text())
        digest = sha256_file(out / "shifts.f64")
        assert header == {"dtype": "<f8", "file": "shifts.f64", "sha256": digest, "shape": [50, 4]}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["artifact_sha256"]["shifts.f64"] == digest
        drift = drift_from_config(load_config(cfg).sde.drift)
        nu = simulate_drift_shifts(drift, 3, 50, seed=data["seed"]).measure
        atoms = np.frombuffer((out / "shifts.f64").read_bytes(), "<f8").reshape(header["shape"])
        assert atoms.tobytes() == np.column_stack([nu.weights, nu.shifts]).tobytes()

    def test_constant_half_drift_values(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "s.json",
            {
                "schema_version": 1,
                "seed": 5,
                "sde": {
                    "drift": {"kind": "constant", "value": 0.5},
                    "steps": 8,
                    "paths": 1024,
                    "max_degree": 6,
                },
            },
        )
        out = tmp_path / "out"
        assert main(["sde", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "sde_report.json").read_text())
        assert report["novikov_estimate"] == pytest.approx(math.exp(0.125), rel=1e-15)
        assert report["drift_energy_estimate"] == 0.25
        assert report["drift_energy_passed"] is True

    @pytest.mark.parametrize("value, passed", [(0.5, True), (1.0, False)])
    def test_drift_energy_is_an_audit_verdict(self, tmp_path, value, passed):
        # the gate's verdict sits among the density's in sde_report.json, and
        # drift_energy_passed repeats it
        data = base_sde_config(drift={"kind": "constant", "value": value}, steps=1, max_degree=16)
        cfg = write_config(tmp_path, "s.json", data)
        out = tmp_path / "out"
        assert main(["sde", "--config", str(cfg), "--out", str(out)]) == (0 if passed else 1)
        report = json.loads((out / "sde_report.json").read_text())
        verdict = {"passed": passed, "measured": value * value, "threshold": 1.0}
        assert report["audit"]["verdicts"]["drift_energy"] == verdict
        assert report["drift_energy_passed"] is report["audit"]["all_passed"] is passed

    def test_sin_drift_with_llt(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "s.json",
            {
                "schema_version": 1,
                "seed": 11,
                "space": {"dimension": 8, "max_degree": 8},
                "alpha": 0.5,
                "n_values": [4, 16],
                "distance": {"method": "mc", "samples": 6000},
                "sde": {
                    "drift": {"kind": "scaled_sin", "scale": 0.5},
                    "steps": 8,
                    "paths": 2000,
                    "max_degree": 8,
                },
            },
        )
        out = tmp_path / "out"
        assert main(["sde", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "sde_report.json").read_text())
        assert report["drift_energy_passed"] is True
        rows = (out / "rate.csv").read_text().strip().splitlines()[1:]
        l1s = [float(r.split(",")[1]) for r in rows]
        bounds = [float(r.split(",")[2]) for r in rows]
        errs = [float(r.split(",")[3]) for r in rows]
        assert all(v <= b + e for v, b, e in zip(l1s, bounds, errs))

    @pytest.mark.parametrize("sweep", [True, False], ids=["n_values", "no_n_values"])
    def test_sweep_runs_exactly_with_n_values(self, tmp_path, sweep):
        data = base_sde_config(drift={"kind": "scaled_sin", "scale": 0.5}, steps=4, paths=500)
        if sweep:
            data.update(alpha=0.5, n_values=[4, 16], distance={"method": "mc", "samples": 2000})
        cfg = write_config(tmp_path, "s.json", data)
        out = tmp_path / "out"
        assert main(["sde", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "rate.csv").is_file() == sweep
        assert (out / "summary.json").is_file() == sweep

    def test_paths_are_drawn_once(self, monkeypatch, tmp_path):
        # the shifts, the Novikov moment and the drift energy share one draw
        import wickllt.sde as sde

        calls = []
        draw = sde._drift_at_left_points

        def counting(*args, **kwargs):
            calls.append(args)
            return draw(*args, **kwargs)

        monkeypatch.setattr(sde, "_drift_at_left_points", counting)
        cfg = write_config(tmp_path, "s.json", base_sde_config(drift={"kind": "constant", "value": 0.5}))
        assert main(["sde", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == 1


@pytest.mark.parametrize(
    "command, data",
    [
        ("llt", base_llt_config()),
        (
            "sde",
            {
                **base_sde_config(drift={"kind": "scaled_sin", "scale": 0.5}),
                "alpha": 0.5,
                "n_values": [4, 16],
                "distance": {"method": "mc", "samples": 200},
            },
        ),
    ],
    ids=["llt", "sde"],
)
def test_bound_violation_writes_the_rate_table(monkeypatch, tmp_path, capsys, command, data):
    # a measured distance of 1 exceeds every row's bound; llt and sde write
    # the same rate.csv and summary.json, listing the violating rows
    import wickllt.harness as harness

    monkeypatch.setattr(harness, "l1_distances", lambda fs, *a, **k: [(1.0, 0.0)] * len(fs))
    cfg = write_config(tmp_path, "c.json", data)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{command}: FAIL (rate bound violated") and err.count("\n") == 1
    rows = (out / "rate.csv").read_text().strip().splitlines()
    assert rows[0] == "n,l1,bound,err" and len(rows) == 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["bound_violations"] == ["n=4", "n=16"]
    assert summary["audit"]["all_passed"] is True
    assert "audit_overridden" not in summary
    digests = json.loads((out / "manifest.json").read_text())["artifact_sha256"]
    for name in ("rate.csv", "summary.json"):
        assert digests[name] == sha256_file(out / name)


# 1 + 0.1 He2 + 0.1 He3 is negative for every x < -3
NEGATIVE_TAIL = base_llt_config(
    space={"dimension": 1, "max_degree": 8},
    density={
        "kind": "coefficients",
        "terms": [{"index": [2], "coeff": 0.1}, {"index": [3], "coeff": 0.1}],
    },
)


SDE_WRITES = ["density.json", "sde_report.json", "shifts.f64", "shifts.json"]


@pytest.mark.parametrize(
    "command, data, failed, written",
    [
        ("audit", NEGATIVE_TAIL, "nonnegativity", ["audit.json"]),
        ("llt", NEGATIVE_TAIL, "nonnegativity", []),
        (
            "sde",
            {
                **base_sde_config(drift={"kind": "constant", "value": 0.99}, steps=1, max_degree=3),
                "alpha": 0.5,
                "n_values": [4, 16],
            },
            "nonnegativity",
            SDE_WRITES,
        ),
        (
            "validate",
            {
                "schema_version": 1,
                "seed": 99,
                "validate": {
                    "dimension": 2, "max_degree": 4, "ks_samples": 4000, "inject_error": "functor"
                },
            },
            "functor",
            ["validate.json"],
        ),
        (
            "sde",
            base_sde_config(drift={"kind": "constant", "value": 1.0}, steps=1, max_degree=16),
            "drift_energy",
            SDE_WRITES,
        ),
    ],
    ids=["audit", "llt", "sde", "validate", "sde_drift_energy"],
)
def test_failed_audit_stops_every_command(tmp_path, capsys, command, data, failed, written):
    # one gate: each command stops with exit 1 and one stderr line naming the
    # failed check, its measured value and threshold, before any sweep row,
    # and says nothing of the failure on stdout; no flag lets the run go on
    cfg = write_config(tmp_path, "c.json", data)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    what = "assumption audit"
    if command == "validate":
        what = "identity suite"
        verdicts = json.loads((out / "validate.json").read_text())["identities"]
    elif command == "sde":
        verdicts = json.loads((out / "sde_report.json").read_text())["audit"]["verdicts"]
    else:
        config = load_config(cfg)
        density = resolve_density(config.density, config.build_space()).vector
        verdicts = audit_density(density).to_json_dict()["verdicts"]
    check = verdicts[failed]
    assert [name for name, v in verdicts.items() if not v["passed"]] == [failed]
    assert captured.err == (
        f"{command}: FAIL ({what} failed: {failed} (measured {check['measured']!r}, "
        f"threshold {check['threshold']:.6g}))\n"
    )
    assert f"{command}: FAIL" not in captured.out
    assert sorted(p.name for p in out.iterdir() if p.name != "manifest.json") == written
    with pytest.raises(SystemExit) as info:
        main([command, "--config", str(cfg), "--out", str(tmp_path / "o"), "--override-audit"])
    assert info.value.code == 2


class TestBuildXi:
    def test_writes_series_and_report(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "x.json",
            {
                "schema_version": 1,
                "seed": 5,
                "space": {"dimension": 1, "max_degree": 12},
                "density": {"kind": "gaussian_cov", "g2": [[0.2]]},
            },
        )
        out = tmp_path / "out"
        assert main(["build-xi", "--config", str(cfg), "--out", str(out)]) == 0
        data = json.loads((out / "xi_series.json").read_text())
        assert data["g2"] == [[0.2]]
        assert data["series"]["coeffs"][0] == 1.0
        assert data["series"]["dimension"] == 1
        report = json.loads((out / "xi_report.json").read_text())
        assert report["norm_sq_eigenproduct"] == pytest.approx((1 - 0.16) ** -0.5)

    def test_builds_the_series_once(self, monkeypatch, tmp_path):
        # every module that holds gaussian_limit_series counts into one tally
        import wickllt
        import wickllt.limit_density as limit_density

        real = limit_density.gaussian_limit_series
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "wickllt":
                for key, value in list(vars(module).items()):
                    if value is real:
                        monkeypatch.setattr(module, key, counting)
        assert wickllt.gaussian_limit_series is counting
        cfg = Path(__file__).resolve().parent.parent / "configs" / "build_xi_d2.json"
        assert main(["build-xi", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == 1

    def test_resolved_gaussian_cov_carries_its_limit_density(self):
        g2 = [[0.1, 0.05], [0.05, 0.2]]
        space = basis.GaussianSpace(2, 8)
        density = resolve_density({"kind": "gaussian_cov", "g2": g2}, space)
        limit = density.structure
        assert density.kind == "gaussian_cov" and isinstance(limit, LimitDensity)
        assert limit.series is density.vector
        expected = gaussian_limit_series(np.array(g2), space)
        assert np.array_equal(limit.series.coeffs, expected.series.coeffs)
        assert np.array_equal(limit.g2, g2)
        assert np.array_equal(limit.eigenvalues, expected.eigenvalues)
        assert limit.l2_tail_sq == expected.l2_tail_sq


class TestConfigErrors:
    def test_unknown_field_exit_two(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "c.json",
            {**base_llt_config(), "extra_field": 1},
        )
        assert main(["llt", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "extra_field" in capsys.readouterr().err

    def test_unknown_nested_field_exit_two(self, tmp_path, capsys):
        data = base_llt_config()
        data["distance"]["nodess"] = 3
        cfg = write_config(tmp_path, "c.json", data)
        assert main(["llt", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "nodess" in capsys.readouterr().err

    def test_malformed_json_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"schema_version": 1,,}')
        assert main(["llt", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "line" in capsys.readouterr().err

    def test_wrong_schema_version(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {**base_llt_config(), "schema_version": 2})
        assert main(["llt", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "index, reason",
        [([1, 1], "has length 2"), ([-1], "negative entry"), ([17], "has degree 17")],
    )
    def test_term_index_outside_space(self, tmp_path, capsys, index, reason):
        data = base_llt_config()
        data["density"]["terms"].append({"index": index, "coeff": 0.01})
        cfg = write_config(tmp_path, "c.json", data)
        assert main(["llt", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert reason in err and "(d=1, K=16)" in err

    def test_coeffs_of_wrong_length(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "c.json",
            {
                "schema_version": 1,
                "seed": 1,
                "space": {"dimension": 1, "max_degree": 8},
                "density": {"kind": "coefficients", "coeffs": [1.0, 0.0]},
            },
        )
        assert main(["audit", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "expected 9 coefficients" in err and "(d=1, K=8)" in err

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (
                {"distance": {"method": "quadrature", "nodes_per_axis": 32}},
                "unknown field(s) ['nodes_per_axis'] in distance",
            ),
            (
                {"distance": {"method": "quadrature", "max_quadrature_dim": 3}},
                "unknown field(s) ['max_quadrature_dim'] in distance",
            ),
            ({"distance": {"method": "mc", "samples": 1}}, "samples must be at least 2"),
            (
                {"space": {"dimension": 4, "max_degree": 4}, "density": {"kind": "coefficients"}},
                "swept space has dimension 4",
            ),
            (
                {
                    "space": {"dimension": 4, "max_degree": 4},
                    "sde": {
                        "drift": {"kind": "zero"},
                        "steps": 4,
                        "paths": 64,
                        "max_degree": 4,
                    },
                },
                "swept space has dimension 4",
            ),
            (
                {"distance": {"method": "mc", "samples": 10**30}},
                "evaluates 1000000000000000000000000000000 points of dimension 1",
            ),
            (
                {
                    "space": {"dimension": 3, "max_degree": 80},
                    "density": {"kind": "coefficients"},
                },
                "entries, more than 100000000",
            ),
        ],
        ids=[
            "nodes_per_axis_field",
            "max_quad_dim_field",
            "one_sample",
            "quadrature_space",
            "quadrature_sde_steps",
            "mc_samples_huge",
            "quadrature_points_huge",
        ],
    )
    def test_distance_config_rejected(self, tmp_path, capsys, overrides, message):
        data = base_llt_config(**overrides)
        command = "sde" if "sde" in data else "llt"
        cfg = write_config(tmp_path, "c.json", data)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize(
        "command, data, message",
        [
            (
                "llt",
                base_llt_config(space={"dimension": 1, "max_degree": -1}),
                "space.max_degree must be at least 0",
            ),
            ("llt", base_llt_config(alpha="x"), "alpha must be a number, got 'x'"),
            ("llt", base_llt_config(seed="abc"), "seed must be an integer, got 'abc'"),
            ("llt", base_llt_config(n_values=["a"]), "each of n_values must be an integer"),
            ("llt", base_llt_config(n_values=[2**63 - 1]), "n_values must be at most 2**53"),
            (
                "llt",
                base_llt_config(space={"dimension": "two", "max_degree": 4}),
                "space.dimension must be an integer",
            ),
            ("sde", base_sde_config(paths=0), "sde.paths must be at least 2, got 0"),
            # a standard error needs two paths
            ("sde", base_sde_config(paths=1), "sde.paths must be at least 2, got 1"),
            ("sde", base_sde_config(drift={"kind": "cosine"}), "unknown drift kind 'cosine'"),
            ("sde", base_sde_config(drift={"kind": "constant"}), "needs a 'value' field"),
            (
                "sde",
                base_sde_config(drift={"kind": "constant", "value": 1, "zz": 2}),
                "sde.drift: unknown field(s) ['zz']",
            ),
            (
                "sde",
                base_sde_config(drift={"kind": "constant", "value": "0.25"}),
                "sde.drift: value must be a number, got '0.25'",
            ),
            (
                "sde",
                base_sde_config(drift={"kind": "constant", "value": True}),
                "sde.drift: value must be a number, got True",
            ),
            (
                "sde",
                base_sde_config(drift={"kind": "constant", "value": math.nan}),
                "sde.drift: value must be finite, got nan",
            ),
            (
                "llt",
                base_llt_config(
                    density={"kind": "sde", "drift": {"kind": "zero"}, "paths": 16},
                    distance={"method": "mc", "samples": 200},
                ),
                "unknown density kind 'sde'",
            ),
            (
                "sde",
                base_sde_config(novikov_ceiling=1e15),
                "unknown field(s) ['novikov_ceiling'] in sde",
            ),
            ("sde", base_sde_config(run_llt=True), "unknown field(s) ['run_llt'] in sde"),
            (
                "llt",
                base_llt_config(space={"dimension": 10**30, "max_degree": 0}),
                "space.dimension must be at most 256",
            ),
            ("sde", base_sde_config(steps=10**30, max_degree=0), "sde.steps must be at most 256"),
            ("sde", base_sde_config(steps=2**63, max_degree=0), "sde.steps must be at most 256"),
            (
                "validate",
                base_validate_config(dimension=2**63),
                "validate.dimension must be at most 256",
            ),
            ("sde", base_sde_config(paths=10**30), "sde.paths times sde.steps is"),
            ("sde", base_sde_config(paths=2**63), "more than 100000000 drift values"),
            (
                "validate",
                base_validate_config(ks_samples=10**30),
                "validate.ks_samples must be at most 16666666",
            ),
            (
                "validate",
                base_validate_config(ks_samples=2**63),
                "validate.ks_samples must be at most 16666666",
            ),
            (
                "validate",
                base_validate_config(ks_samples=999),
                "validate.ks_samples must be at least 1000, got 999",
            ),
            (
                "validate",
                # the KS check holds about six arrays of ks_samples floats
                base_validate_config(ks_samples=10**8 // 6 + 1),
                "validate.ks_samples must be at most 16666666, got 16666667",
            ),
            (
                "validate",
                base_validate_config(max_degree=0),
                "validate.max_degree must be at least 2, got 0",
            ),
            (
                "validate",
                base_validate_config(max_degree=1),
                "validate.max_degree must be at least 2, got 1",
            ),
            (
                "llt",
                base_llt_config(record_wall_times=True),
                "unknown field(s) ['record_wall_times'] in config root",
            ),
            (
                "llt",
                base_llt_config(
                    density={
                        "kind": "shift_mixture",
                        "weights": [0.5, 0.5],
                        "shifts": [[0.1, 0.2], [-0.1, 0.0]],
                    }
                ),
                "shifts have dimension 2, space has 1",
            ),
            (
                "llt",
                base_llt_config(
                    density={
                        "kind": "shift_mixture",
                        "weights": [0.25, 0.25],
                        "shifts": [[0.1], [-0.1]],
                    }
                ),
                "weights sum to 0.5",
            ),
            (
                "llt",
                base_llt_config(
                    space={"dimension": 30, "max_degree": 12}, distance={"method": "mc"}
                ),
                "basis too large",
            ),
            (
                "llt",
                base_llt_config(
                    space={"dimension": 200, "max_degree": 3},
                    density={"kind": "coefficients"},
                    distance={"method": "mc"},
                ),
                "274740200 table entries",
            ),
            (
                "llt",
                base_llt_config(density={"kind": "gaussian_cov", "g2": [[0.1, 0.0]]}),
                "excess kernel must be a square matrix",
            ),
            (
                "llt",
                # the rank-one kernel g g^T of g = (0.1, 0.1) in a space of dimension 1
                base_llt_config(
                    density={"kind": "gaussian_cov", "g2": [[0.01, 0.01], [0.01, 0.01]]}
                ),
                "kernel is 2x2, space dimension is 1",
            ),
            (
                "llt",
                base_llt_config(density={"kind": "rank_one_quadratic", "g": [0.1]}),
                "config error: unknown density kind 'rank_one_quadratic'",
            ),
            ("llt", base_llt_config(distance=5), "distance must be an object, got 5"),
            ("llt", base_llt_config(density=5), "density must be an object, got 5"),
            (
                "llt",
                base_llt_config(density={"kind": "coefficients", "terms": [3]}),
                "density.terms entry must be an object, got 3",
            ),
            (
                "llt",
                base_llt_config(density={"kind": "coefficients", "terms": 3}),
                "density.terms must be a list, got 3",
            ),
            (
                "llt",
                base_llt_config(density={"kind": "product_hermite", "axis_coeffs": []}),
                "axis_coeffs must be a non-empty list",
            ),
            (
                "build-xi",
                {**base_xi_config(), "density": {"kind": "gaussian_cov"}},
                "missing required field(s) ['g2'] in density",
            ),
            ("build-xi", base_xi_config(g2=[[math.nan]]), "density.g2 must be finite, got nan"),
            ("build-xi", base_xi_config(g2=[[0.1, 0.0]]), "excess kernel must be a square matrix"),
            ("build-xi", base_xi_config(g2="abc"), "density.g2 must be numbers"),
            ("build-xi", base_xi_config(max_degree=1), "kernel placement needs max_degree >= 2"),
            ("build-xi", base_xi_config(zzz=1), "unknown field(s) ['zzz'] in density"),
            (
                "build-xi",
                {k: v for k, v in base_xi_config().items() if k != "density"},
                "this command needs a density of kind 'gaussian_cov'",
            ),
            (
                "build-xi",
                {**base_xi_config(), "density": {"kind": "product_hermite", "axis_coeffs": [1.0]}},
                "this command needs a density of kind 'gaussian_cov'",
            ),
            (
                "llt",
                base_llt_config(
                    density={
                        "kind": "shift_mixture",
                        "weights": [0.5, 0.5],
                        "shifts": [[0.1], [0.2, 0.3]],
                    }
                ),
                "config error: density: ",
            ),
            (
                "llt",
                base_llt_config(
                    density={"kind": "shift_mixture", "weights": {"a": 1.0}, "shifts": [[0.1]]}
                ),
                "config error: density: float() argument must be",
            ),
            (
                "llt",
                # every scaled degree >= 3 term underflows, so C would read 0
                base_llt_config(alpha=1e-300),
                "config error: alpha 1e-300 is too small",
            ),
            ("audit", base_xi_config(g2=[[0.1]], max_degree=1), "needs max_degree >= 2"),
            ("validate", base_validate_config(inject_error="bogus"), "inject_error must be null or"),
            ("validate", base_validate_config(inject_error=5), "inject_error must be null or"),
            (
                "sde",
                {
                    **base_sde_config(steps=8, max_degree=8),
                    "space": {"dimension": 3, "max_degree": 4},
                },
                "space (dimension 3, max_degree 4) disagrees with the space of the sde section "
                "(steps 8, max_degree 8)",
            ),
            ("llt", base_llt_config(alpha=10**400), "alpha must be finite"),
            (
                "llt",
                base_llt_config(
                    density={"kind": "coefficients", "terms": [{"index": [2.7], "coeff": 0.1}]}
                ),
                "multi-index [2.7] is not a list of integers",
            ),
            (
                "llt",
                base_llt_config(
                    density={"kind": "coefficients", "terms": [{"index": ["2"], "coeff": 0.1}]}
                ),
                "multi-index ['2'] is not a list of integers",
            ),
            (
                "llt",
                base_llt_config(
                    density={"kind": "coefficients", "terms": [{"index": [True], "coeff": 0.1}]}
                ),
                "multi-index [True] is not a list of integers",
            ),
            (
                "llt",
                # a screen this narrow was one point, which passed NEGATIVE_TAIL
                {**NEGATIVE_TAIL, "audit_grid": {"halfwidth": 1e-300}},
                "unknown field(s) ['audit_grid'] in config root",
            ),
        ],
        ids=[
            "negative_degree",
            "alpha_string",
            "seed_string",
            "n_values_string",
            "n_values_huge",
            "dimension_string",
            "zero_paths",
            "one_path",
            "unknown_drift",
            "constant_drift_without_value",
            "sde_drift_unknown_field",
            "sde_drift_string",
            "sde_drift_bool",
            "sde_drift_nan",
            "density_kind_sde",
            "novikov_ceiling_field",
            "run_llt_field",
            "dimension_huge",
            "steps_huge",
            "steps_2_63",
            "validate_dim_2_63",
            "paths_huge",
            "paths_2_63",
            "ks_samples_huge",
            "ks_samples_2_63",
            "ks_samples_999",
            "ks_samples_cap_plus_one",
            "validate_degree_zero",
            "validate_degree_one",
            "wall_times_unknown",
            "shift_dimension",
            "weights_sum",
            "basis_too_large",
            "index_table_too_large",
            "kernel_not_square",
            "direction_length",
            "rank_one_kind_unknown",
            "distance_not_object",
            "density_not_object",
            "term_not_object",
            "terms_not_list",
            "empty_axis_coeffs",
            "xi_without_g2",
            "xi_nan_g2",
            "xi_g2_not_square",
            "xi_g2_string",
            "xi_degree_one",
            "xi_unknown_field",
            "xi_without_density",
            "xi_product_hermite",
            "ragged_shifts",
            "weights_object",
            "alpha_underflows",
            "audit_degree_one",
            "unknown_identity",
            "identity_number",
            "space_disagrees_with_sde",
            "alpha_beyond_float",
            "index_float",
            "index_string",
            "index_bool",
            "audit_grid_unknown",
        ],
    )
    def test_bad_value_exits_two_without_traceback(
        self, tmp_path, capsys, command, data, message
    ):
        cfg = write_config(tmp_path, "c.json", data)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("samples, refused", [(10**8 // 5, False), (10**8 // 5 + 1, True)])
    def test_distance_cap_counts_the_rows(self, samples, refused):
        # the sweep holds its points and one difference per n value at each:
        # llt_cubic_d1 has four n values, so 10**8 // 5 points of dimension 1
        # fill the cap (at 10**8 points the rows alone would be 3.2 GB)
        data = json.loads((REPO / "configs" / "llt_cubic_d1.json").read_text())
        data["distance"] = {"method": "mc", "samples": samples}
        config = parse_config(data)
        if not refused:
            config.require_llt_fields(1, 16)
            return
        message = f"evaluates {samples} points of dimension 1 for 4 rows"
        with pytest.raises(ConfigError, match=message):
            config.require_llt_fields(1, 16)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "command, data, message",
        [
            (
                "build-xi",
                base_xi_config(g2=[[0.9, 0.0], [0.0, 0.1]]),
                "spectral radius of the doubled excess kernel is 1.800000 >= 1",
            ),
            (
                "audit",
                base_xi_config(g2=[[0.9]]),
                "spectral radius of the doubled excess kernel is 1.800000 >= 1",
            ),
            (
                "llt",
                # g g^T of g = (0.9): 2 |g|^2 = 1.62
                base_llt_config(density={"kind": "gaussian_cov", "g2": [[0.81]]}),
                "spectral radius of the doubled excess kernel is 1.620000 >= 1",
            ),
            ("audit", base_xi_config(g2=[[-0.2]]), "excess kernel is not positive semidefinite"),
            (
                "sde",
                base_sde_config(drift={"kind": "linear", "slope": 1e308}),
                "drift evaluation returned a non-finite value",
            ),
            (
                "sde",
                base_sde_config(drift={"kind": "linear", "slope": 1e200}),
                "exponent inf overflows",
            ),
            (
                "llt",
                base_llt_config(
                    space={"dimension": 1, "max_degree": 4},
                    density={"kind": "coefficients", "coeffs": [1.5, 0.0, 0.0, 0.0, 0.0]},
                ),
                "assumption audit failed: normalization (measured 1.5, threshold 1e-12)",
            ),
        ],
        ids=[
            "xi_spectral_radius",
            "audit_spectral_radius",
            "llt_rank_one_too_large",
            "audit_not_psd",
            "sde_drift_overflows",
            "sde_novikov_exponent_overflows",
            "llt_not_normalized",
        ],
    )
    def test_violation_exits_one_without_traceback(
        self, tmp_path, capsys, command, data, message
    ):
        # warnings are errors here: a numpy overflow warning would be a
        # second stderr line
        cfg = write_config(tmp_path, "c.json", data)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"{command}: FAIL (") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize(
        "command, data, field",
        [
            (
                "llt",
                base_llt_config(
                    space={"dimension": 1, "max_degree": 171}, distance={"method": "mc"}
                ),
                "space.max_degree",
            ),
            ("sde", base_sde_config(steps=1, max_degree=171), "sde.max_degree"),
            (
                "validate",
                {"schema_version": 1, "seed": 1, "validate": {"dimension": 1, "max_degree": 171}},
                "validate.max_degree",
            ),
        ],
        ids=["space", "sde", "validate"],
    )
    def test_degree_above_factorial_limit_exits_two(self, tmp_path, capsys, command, data, field):
        # 171! overflows a float, which every norm needs
        cfg = write_config(tmp_path, "c.json", data)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert f"{field} must be at most 170, got 171" in err

    @pytest.mark.parametrize(
        "command, data",
        [
            (
                "llt",
                base_llt_config(
                    space={"dimension": 1, "max_degree": 2},
                    density={"kind": "coefficients", "terms": [{"index": [2], "coeff": 0.1}]},
                ),
            ),
            (
                "sde",
                {
                    **base_sde_config(max_degree=2),
                    "alpha": 0.5,
                    "n_values": [4, 16],
                },
            ),
        ],
        ids=["llt", "sde"],
    )
    def test_vacuous_sweep_exits_two_before_running(self, tmp_path, capsys, command, data):
        # below degree 3 the rate constant is zero by construction, so every
        # row would pass whatever the distances
        cfg = write_config(tmp_path, "c.json", data)
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "needs max_degree >= 3" in err and "max_degree 2" in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "density, field",
        [
            ({"kind": "coefficients", "coeffs": [1.0, 0.0, "X", 0.0, 0.0]}, "density.coeffs"),
            (
                {"kind": "coefficients", "terms": [{"index": [2], "coeff": "X"}]},
                "density.terms coeff",
            ),
            ({"kind": "product_hermite", "axis_coeffs": [1.0, 0.0, "X"]}, "density.axis_coeffs"),
            ({"kind": "gaussian_cov", "g2": [["X"]]}, "density.g2"),
            (
                {"kind": "shift_mixture", "weights": [0.5, 0.5], "shifts": [["X"], [0.1]]},
                "density: weights and shifts",
            ),
        ],
        ids=["coeffs", "terms", "axis_coeffs", "g2", "shifts"],
    )
    def test_non_finite_density_value_exits_two(self, tmp_path, capsys, value, density, field):
        # json writes NaN and Infinity as bare literals, which json.loads reads back
        text = json.dumps(density).replace('"X"', json.dumps(value))
        data = base_llt_config(space={"dimension": 1, "max_degree": 4})
        data["density"] = json.loads(text)
        cfg = write_config(tmp_path, "c.json", data)
        assert main(["llt", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert f"{field} must be finite" in err

    def test_audit_ignores_the_sweep_distance(self, tmp_path):
        # audit measures no distance, so a quadrature distance that a sweep of
        # this space could not use is no error there
        data = base_llt_config(
            space={"dimension": 4, "max_degree": 4}, density={"kind": "coefficients"}
        )
        cfg = write_config(tmp_path, "c.json", data)
        assert main(["audit", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    def test_alpha_domain_checked(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", base_llt_config(alpha=1.0))
        assert main(["llt", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_missing_file(self, tmp_path):
        assert (
            main(["llt", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
            == 2
        )


_REMOVED = object()


def _fuzz_values(integers):
    return st.one_of(
        integers,
        st.floats(allow_nan=False),
        st.just(math.nan),
        st.booleans(),
        st.text(max_size=6),
        st.lists(st.one_of(integers, st.floats(), st.text(max_size=3), st.none()), max_size=3),
        st.none(),
        st.dictionaries(st.text(max_size=6), integers, max_size=2),
        st.just(_REMOVED),
    )


_FUZZ_VALUES = _fuzz_values(st.integers())


@settings(max_examples=60, deadline=None)
@given(
    field=st.sampled_from(
        ["space", "density", "terms", "distance", "alpha", "n_values", "seed"]
    ),
    value=_FUZZ_VALUES,
)
def test_config_fuzz_exits_with_a_documented_code(field, value):
    # one field of a small valid llt config replaced by an arbitrary JSON
    # value (or removed): every outcome is an exit code, never an exception
    data = base_llt_config(
        space={"dimension": 2, "max_degree": 4},
        density={
            "kind": "coefficients",
            "terms": [{"index": [2, 0], "coeff": 0.1}, {"index": [0, 2], "coeff": 0.05}],
        },
        n_values=[4, 16],
        distance={"method": "mc", "samples": 200},
    )
    section = data["density"] if field == "terms" else data
    if value is _REMOVED:
        del section[field]
    else:
        section[field] = value
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp), "c.json", data)
        assert main(["llt", "--config", str(cfg), "--out", str(Path(tmp) / "o")]) in (0, 1, 2)


# one field of the sde, validate or build-xi section: (command, its small
# valid config, the section, the field)
_SDE_FIELDS = ("drift", "steps", "paths", "max_degree")
_VALIDATE_FIELDS = ("dimension", "max_degree", "inject_error", "ks_samples")
_FUZZ_FIELDS = [
    *[("sde", base_sde_config(), "sde", f) for f in _SDE_FIELDS],
    *[("validate", base_validate_config(), "validate", f) for f in _VALIDATE_FIELDS],
    *[("build-xi", base_xi_config(), "density", f) for f in ("kind", "g2")],
]


@pytest.mark.parametrize(
    "command, config, section, field", _FUZZ_FIELDS, ids=[f"{c}-{f}" for c, _, _, f in _FUZZ_FIELDS]
)
@settings(max_examples=15, deadline=None)
# integers stay small: a path count or a sample size is allocated as given,
# up to 10**8 entries
@given(value=_fuzz_values(st.integers(min_value=-2, max_value=6)))
def test_config_fuzz_of_other_commands(command, config, section, field, value):
    # as above, one field of another command's section at a time
    data = json.loads(json.dumps(config))
    if value is _REMOVED:
        data[section].pop(field, None)
    else:
        data[section][field] = value
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp), "c.json", data)
        assert main([command, "--config", str(cfg), "--out", str(Path(tmp) / "o")]) in (0, 1, 2)


def test_every_shipped_config_loads_and_has_a_stage():
    # a schema change that drops a field cannot leave a shipped config behind
    # unparsed, nor the experiment battery without its config
    spec = importlib.util.spec_from_file_location(
        "run_experiments", REPO / "scripts" / "run_experiments.py"
    )
    battery = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(battery)
    shipped = sorted(path.name for path in (REPO / "configs").glob("*.json"))
    assert shipped and shipped == sorted(name for _, name, _ in battery.STAGES)
    for name in shipped:
        load_config(REPO / "configs" / name)


_SCIPY_PROBE = """
import sys, tempfile
from pathlib import Path

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import wickllt.cli
assert not scipy_modules(), ("import", scipy_modules())
configs = Path(sys.argv[1])
with tempfile.TemporaryDirectory() as tmp:
    for command, name in [
        ("validate", "validate_default.json"),
        ("audit", "audit_mixture.json"),
        ("llt", "llt_cubic_d1.json"),
    ]:
        code = wickllt.cli.main([command, "--config", str(configs / name), "--out", f"{tmp}/{command}"])
        assert code == 0, (command, code)
        assert not scipy_modules(), (command, scipy_modules())
print("clean")
"""


def test_cli_runs_without_scipy():
    # scipy is a test-only dependency: neither importing the CLI nor running
    # validate, audit or a quadrature sweep may load any part of it
    import wickllt

    src = str(Path(wickllt.__file__).resolve().parent.parent)
    configs = str(Path(__file__).resolve().parent.parent / "configs")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, configs],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().splitlines()[-1] == "clean"


def test_gate_below_the_noise_floor_is_one_config_error(tmp_path):
    # at alpha = 1e-8 every bound of the llt_mixture_d2 sweep is below 1e-18,
    # under the 1e-12 noise floor, so no row could fail: exit 2 with one line,
    # in a fresh process, and no rate.csv
    import wickllt

    src = str(Path(wickllt.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    configs = Path(__file__).resolve().parent.parent / "configs"
    data = {**json.loads((configs / "llt_mixture_d2.json").read_text()), "alpha": 1e-8}
    cfg = write_config(tmp_path, "c.json", data)
    result = subprocess.run(
        [sys.executable, "-m", "wickllt.cli", "llt", "--config", str(cfg), "--out", str(tmp_path / "o")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 2
    assert result.stderr.splitlines() == [
        "config error: alpha 1e-08 is too small: the bound at n=4 is at or below the "
        "1e-12 noise floor of a measured distance"
    ]
    assert not (tmp_path / "o" / "rate.csv").exists()


@pytest.mark.parametrize(
    "density, degree",
    [
        (
            {"kind": "shift_mixture", "weights": [0.5, 0.5], "shifts": [[1e200, 0.0], [-1e200, 0.0]]},
            2,
        ),
        ({"kind": "coefficients", "terms": [{"index": [0, 3], "coeff": 1e308}]}, 3),
        ({"kind": "product_hermite", "axis_coeffs": [1.0, 0.0, 1e200]}, 2),
    ],
    ids=["shifts_1e200", "coefficient_1e308", "axis_1e200"],
)
def test_overflowing_density_is_one_config_error(tmp_path, density, degree):
    # finite inputs whose density overflows: exit 2 and one stderr line, with
    # no RuntimeWarning, in a fresh process (numpy warns once per process)
    import wickllt

    src = str(Path(wickllt.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    data = base_llt_config(space={"dimension": 2, "max_degree": 6}, density=density)
    cfg = write_config(tmp_path, "c.json", data)
    result = subprocess.run(
        [sys.executable, "-m", "wickllt.cli", "llt", "--config", str(cfg), "--out", str(tmp_path / "o")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 2
    assert result.stderr.splitlines() == [
        f"config error: density is not finite: its coefficients or L2 mass overflow at degree {degree}"
    ]
