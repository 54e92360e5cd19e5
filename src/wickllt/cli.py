"""Command-line front end: audit, llt, validate, sde, build-xi.

Exit codes: 0 all checks pass; 1 a hypothesis or bound violation; 2 a usage
or configuration error. Every run writes a manifest with the config echo,
derived seeds, per-stage wall times, and SHA-256 digests of the artifacts.
The artifacts themselves are byte-stable: rerunning with the same config and
seed reproduces them exactly (measured wall times go to the manifest, not the
artifacts, unless record_wall_times is set).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .audit import AssumptionViolationError, audit_density
from .basis import BasisTooLargeError, GaussianSpace
from .config import ConfigError, ExperimentConfig, load_config, parse_config, resolve_density
from .harness import BoundViolationError, RateTable, rate_sweep
from .identities import run_identity_suite
from .limit_density import gaussian_limit_series, limit_l2_norms
from .measures import DensityValidationError, WeightedShifts, shift_mixture
from .sde import (
    PathGrid,
    SdeNumericError,
    drift_from_config,
    mean_square_drift_estimate,
    novikov_from_shifts,
    simulate_drift_shifts,
)
from .serialize import chaos_to_json, dumps_canonical, sha256_file, write_csv, write_text
from .streams import STREAM_DISTANCE, STREAM_PATHS, child_seed

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


class _Manifest:
    """Collects stage timings, seeds, and artifact digests for one run."""

    def __init__(self, config: ExperimentConfig, command: str):
        self.command = command
        self.config_echo = config.raw
        self.master_seed = config.seed
        self.stage_seconds: dict[str, float] = {}
        self.artifacts: dict[str, str] = {}
        self.notes: dict[str, object] = {}

    def stage(self, name: str):
        manifest = self

        class _Timer:
            def __enter__(self):
                self.start = time.perf_counter()
                return self

            def __exit__(self, *exc):
                manifest.stage_seconds[name] = time.perf_counter() - self.start
                return False

        return _Timer()

    def add_artifact(self, path: Path) -> None:
        self.artifacts[path.name] = sha256_file(path)

    def write(self, out_dir: Path) -> None:
        payload = {
            "command": self.command,
            "library_version": __version__,
            "master_seed": self.master_seed,
            "config": self.config_echo,
            "stage_wall_seconds": self.stage_seconds,
            "artifact_sha256": self.artifacts,
            "notes": self.notes,
        }
        write_text(out_dir / "manifest.json", dumps_canonical(payload))


def _prepare(args) -> tuple[ExperimentConfig, Path]:
    config = load_config(args.config)
    if args.seed is not None:
        config = parse_config({**config.raw, "seed": args.seed})
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return config, out


def cmd_audit(args) -> int:
    config, out = _prepare(args)
    if config.density is None:
        raise ConfigError("audit needs a 'density' section")
    manifest = _Manifest(config, "audit")
    space = config.build_space()
    with manifest.stage("build_density"):
        density = resolve_density(config.density, space, config.seed)
    with manifest.stage("audit"):
        report = audit_density(density, config.audit_grid)
    payload = report.to_json_dict()
    if config.density.get("kind") == "shift_mixture":
        nu = WeightedShifts.from_json_dict(config.density)
        payload["shift_variance_total"] = nu.shift_variance_total()
        payload["exponential_integrability"] = nu.exponential_integrability()
    report_path = out / "audit.json"
    write_text(report_path, dumps_canonical(payload))
    manifest.add_artifact(report_path)
    manifest.write(out)
    if not report.all_passed:
        print(f"audit: FAIL ({', '.join(report.failing())})", file=sys.stderr)
        return EXIT_VIOLATION
    print("audit: PASS")
    return EXIT_OK


def _write_llt_outputs(
    out: Path,
    manifest: _Manifest,
    table: RateTable,
    report,
    config: ExperimentConfig,
    overridden: bool,
    violations=None,
) -> None:
    csv_path = out / "rate.csv"
    write_csv(
        csv_path,
        ["n", "l1", "bound", "err", "seconds"],
        table.to_csv_rows(config.record_wall_times),
    )
    summary = {
        "constant": table.constant,
        "n0": table.n0,
        "beta": table.beta,
        "alpha": config.alpha,
        "rows": [
            {"n": r.n, "l1": r.l1, "bound": r.bound, "err": r.error} for r in table.rows
        ],
        "audit": report.to_json_dict() if report is not None else None,
        "audit_overridden": overridden,
        "bound_violations": violations or [],
        "config": config.raw,
    }
    summary_path = out / "summary.json"
    write_text(summary_path, dumps_canonical(summary))
    manifest.add_artifact(csv_path)
    manifest.add_artifact(summary_path)


def _note_evaluation(manifest: _Manifest, space: GaussianSpace, points: int | None) -> None:
    """Record the sizes basis evaluation ran at: the row counts of the
    head/tail split of the space and, where a sweep ran, its distance points."""
    split = space.split()
    manifest.notes["basis_rows"] = {
        "head": split.head_rows,
        "tail": split.tail.size,
        "full": space.size,
    }
    if points is not None:
        manifest.notes["distance_points"] = points


def cmd_llt(args) -> int:
    config, out = _prepare(args)
    config.require_llt_fields(config.space_dimension, config.space_max_degree)
    manifest = _Manifest(config, "llt")
    manifest.notes["derived_seeds"] = {
        "distance_stream": child_seed(config.seed, STREAM_DISTANCE)
    }
    if args.override_audit:
        manifest.notes["audit_overridden"] = True
    space = config.build_space()
    _note_evaluation(
        manifest, space, config.distance.points(space.dimension, space.max_degree)
    )
    try:
        with manifest.stage("sweep"):
            density = resolve_density(config.density, space, config.seed)
            table, report = rate_sweep(
                config, density=density, override_audit=args.override_audit
            )
    except BoundViolationError as exc:
        if exc.table is not None:
            rows = [f"n={r.n}" for r in exc.rows]
            _write_llt_outputs(
                out, manifest, exc.table, None, config, args.override_audit, rows
            )
            manifest.write(out)
        print(f"llt: FAIL ({exc})", file=sys.stderr)
        return EXIT_VIOLATION
    except AssumptionViolationError as exc:
        print(f"llt: FAIL ({exc})", file=sys.stderr)
        return EXIT_VIOLATION
    with manifest.stage("write"):
        _write_llt_outputs(out, manifest, table, report, config, args.override_audit)
    manifest.write(out)
    print(
        f"llt: PASS (C={table.constant:.6g}, n0={table.n0}, rows={len(table.rows)})"
    )
    return EXIT_OK


def cmd_validate(args) -> int:
    config, out = _prepare(args)
    section = config.validate
    if section is None:
        raise ConfigError("validate needs a 'validate' section")
    manifest = _Manifest(config, "validate")
    with manifest.stage("identities"):
        results = run_identity_suite(
            dimension=section.dimension,
            max_degree=section.max_degree,
            seed=config.seed,
            inject_error=section.inject_error,
            ks_samples=section.ks_samples,
        )
    payload = {
        "inject_error": section.inject_error,
        "identities": [r.to_json_dict() for r in results],
        "all_passed": all(r.passed for r in results),
    }
    report_path = out / "validate.json"
    write_text(report_path, dumps_canonical(payload))
    manifest.add_artifact(report_path)
    manifest.write(out)
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        print(f"identity {r.name}: {mark} (err={r.max_error:.3g}, tol={r.tolerance:.3g})")
    return EXIT_OK if payload["all_passed"] else EXIT_VIOLATION


def cmd_sde(args) -> int:
    config, out = _prepare(args)
    section = config.sde
    if section is None:
        raise ConfigError("sde needs an 'sde' section")
    if section.run_llt:
        # the sweep runs on the space of the path's steps
        config.require_llt_fields(section.steps, section.max_degree, need_density=False)
    manifest = _Manifest(config, "sde")
    manifest.notes["derived_seeds"] = {
        "path_stream_block0": child_seed(config.seed, STREAM_PATHS, 0)
    }
    space = GaussianSpace(section.steps, section.max_degree)
    drift = drift_from_config(section.drift)
    grid = PathGrid(section.steps)
    with manifest.stage("simulate"):
        shifts = simulate_drift_shifts(drift, grid, section.paths, seed=config.seed)
    try:
        with manifest.stage("novikov"):
            novikov = novikov_from_shifts(shifts, ceiling=section.novikov_ceiling)
    except SdeNumericError as exc:
        print(f"sde: FAIL ({exc})", file=sys.stderr)
        return EXIT_VIOLATION
    with manifest.stage("drift_energy"):
        energy = mean_square_drift_estimate(drift, grid, section.paths, seed=config.seed)
    _note_evaluation(
        manifest,
        space,
        config.distance.points(space.dimension, space.max_degree) if section.run_llt else None,
    )
    with manifest.stage("density"):
        density = shift_mixture(shifts, space)
        report = audit_density(density, config.audit_grid)
    payload = {
        "drift": section.drift,
        "steps": section.steps,
        "paths": section.paths,
        "novikov_estimate": novikov.estimate,
        "novikov_standard_error": novikov.standard_error,
        "drift_energy_estimate": energy.estimate,
        "drift_energy_standard_error": energy.standard_error,
        "drift_energy_passed": energy.passed,
        "exponential_integrability": shifts.exponential_integrability(),
        "audit": report.to_json_dict(),
    }
    report_path = out / "sde_report.json"
    write_text(report_path, dumps_canonical(payload))
    manifest.add_artifact(report_path)
    density_path = out / "density.json"
    write_text(density_path, chaos_to_json(density))
    manifest.add_artifact(density_path)
    shifts_path = out / "shifts.json"
    write_text(shifts_path, dumps_canonical(shifts.to_json_dict()))
    manifest.add_artifact(shifts_path)
    ok = energy.passed and report.all_passed
    if ok and section.run_llt:
        try:
            with manifest.stage("llt"):
                table, _ = rate_sweep(
                    config, density=density, report=report, override_audit=args.override_audit
                )
        except (BoundViolationError, AssumptionViolationError) as exc:
            print(f"sde llt: FAIL ({exc})", file=sys.stderr)
            manifest.write(out)
            return EXIT_VIOLATION
        _write_llt_outputs(out, manifest, table, report, config, args.override_audit)
    manifest.write(out)
    print(
        f"sde: {'PASS' if ok else 'FAIL'} (novikov={novikov.estimate:.6g}, "
        f"drift_energy={energy.estimate:.6g} +- {energy.standard_error:.2g})"
    )
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_build_xi(args) -> int:
    config, out = _prepare(args)
    if config.density is None or config.density.get("kind") != "gaussian_cov":
        raise ConfigError("build-xi needs a density of kind 'gaussian_cov'")
    manifest = _Manifest(config, "build-xi")
    space = config.build_space()
    g2 = np.asarray(config.density["g2"], dtype=float)
    with manifest.stage("series"):
        density = gaussian_limit_series(g2, space)
        norms = limit_l2_norms(g2, space)
    series_path = out / "xi_series.json"
    write_text(series_path, dumps_canonical(density.to_json_dict()))
    report = {
        "g2": g2,
        "eigenvalues": density.eigenvalues,
        "l2_tail_sq": density.l2_tail_sq,
        "norm_sq_series": norms.series_value,
        "norm_sq_eigenproduct": norms.determinant_value,
        "norm_sq_scalar_frobenius": norms.scalar_frobenius_value,
    }
    report_path = out / "xi_report.json"
    write_text(report_path, dumps_canonical(report))
    manifest.add_artifact(series_path)
    manifest.add_artifact(report_path)
    manifest.write(out)
    print(f"build-xi: wrote series with {space.size} coefficients")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wickllt",
        description="Gaussian-space density convergence experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("audit", cmd_audit),
        ("llt", cmd_llt),
        ("validate", cmd_validate),
        ("sde", cmd_sde),
        ("build-xi", cmd_build_xi),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument(
            "--threads", type=int, default=1, help="ignored; the sweep runs on one thread"
        )
        p.add_argument(
            "--override-audit",
            action="store_true",
            help="run even if the assumption audit fails (outputs are watermarked)",
        )
        p.set_defaults(handler=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, BasisTooLargeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DensityValidationError as exc:
        print(f"density rejected: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
