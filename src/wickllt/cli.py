"""Command-line front end: audit, llt, validate, sde, build-xi.

Exit codes: 0 all checks pass; 1 a hypothesis or bound violation; 2 a usage
or configuration error. Every run that writes an artifact writes a manifest
with the config echo, derived seeds, per-stage wall times, and SHA-256
digests of the artifacts. The artifacts themselves are byte-stable:
rerunning with the same config and seed reproduces them exactly, because
measured wall times, those of the rate rows among them, go to the manifest
only.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time
from pathlib import Path

from . import __version__
from .audit import AssumptionViolationError, audit_density
from .basis import BasisTooLargeError, GaussianSpace, InsufficientDegreeError
from .config import (
    ConfigError, ExperimentConfig, gaussian_cov_limit, load_config, parse_config, resolve_density
)
from .harness import BoundViolationError, RateTable, rate_sweep
from .identities import run_identity_suite
from .limit_density import limit_l2_norms
from .measures import DensityValidationError, WeightedShifts, shift_mixture
from .sde import PathGrid, SdeNumericError, drift_from_config, simulate_drift_shifts
from .serialize import chaos_to_json, csv_text, dumps_canonical, sha256_file, write_text
from .streams import STREAM_DISTANCE, STREAM_PATHS, child_seed
from .wick import NotNormalizedError

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

# what a command may end in: exit 2 with one "config error:" line, or exit 1
# with one "<command>: FAIL (...)" line
USAGE_ERRORS = (ConfigError, BasisTooLargeError, InsufficientDegreeError)
VIOLATIONS = (
    AssumptionViolationError,
    BoundViolationError,
    SdeNumericError,
    NotNormalizedError,
    DensityValidationError,
)


class _Manifest:
    """Collects stage timings, seeds, and artifact digests for one run."""

    def __init__(self, config: ExperimentConfig, command: str, out: Path):
        self.command = command
        self.config_echo = config.raw
        self.master_seed = config.seed
        self.out = out
        self.stage_seconds: dict[str, float] = {}
        self.artifacts: dict[str, str] = {}
        self.notes: dict[str, object] = {}

    @contextlib.contextmanager
    def stage(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.stage_seconds[name] = time.perf_counter() - start

    def artifact(self, name: str, text: str) -> None:
        """Write text to the file name in the output directory and record its digest."""
        path = self.out / name
        write_text(path, text)
        self.artifacts[name] = sha256_file(path)

    def write(self) -> None:
        payload = {
            "command": self.command,
            "library_version": __version__,
            "master_seed": self.master_seed,
            "config": self.config_echo,
            "stage_wall_seconds": self.stage_seconds,
            "artifact_sha256": self.artifacts,
            "notes": self.notes,
        }
        write_text(self.out / "manifest.json", dumps_canonical(payload))


@contextlib.contextmanager
def _run(args, command: str):
    """The config and the manifest of one run of command.

    The manifest is written on the way out whenever an artifact was, also
    when the command fails after writing it, so that every artifact on disk
    has its digest recorded.
    """
    config = load_config(args.config)
    if args.seed is not None:
        config = parse_config({**config.raw, "seed": args.seed})
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = _Manifest(config, command, out)
    try:
        yield config, manifest
    finally:
        if manifest.artifacts:
            manifest.write()


def cmd_audit(args) -> int:
    with _run(args, "audit") as (config, manifest):
        space = config.build_space()
        with manifest.stage("build_density"):
            density = resolve_density(config.density, space)
        with manifest.stage("audit"):
            report = audit_density(density, config.audit_grid)
        payload = report.to_json_dict()
        if config.density.get("kind") == "shift_mixture":
            nu = WeightedShifts.from_json_dict(config.density)
            payload["shift_variance_total"] = nu.shift_variance_total()
            payload["exponential_integrability"] = nu.exponential_integrability()
        manifest.artifact("audit.json", dumps_canonical(payload))
        if not report.all_passed:
            raise AssumptionViolationError(", ".join(report.failing()))
    print("audit: PASS")
    return EXIT_OK


def _sweep(
    manifest: _Manifest, config: ExperimentConfig, density, report, override_audit: bool
) -> RateTable:
    """The rate sweep of llt and of sde with n_values, written to rate.csv and
    summary.json. A bound violation writes them too, listing its rows, and
    then propagates; report is the audit the caller already ran, or None."""
    space = density.space
    manifest.notes["distance_points"] = config.distance.points(space.dimension, space.max_degree)
    if override_audit:
        manifest.notes["audit_overridden"] = True
    violation = None
    try:
        with manifest.stage("sweep"):
            table, report = rate_sweep(
                config, density=density, report=report, override_audit=override_audit
            )
    except BoundViolationError as exc:
        violation, table = exc, exc.table
    rows = [(r.n, r.l1, r.bound, r.error) for r in table.rows]
    manifest.artifact("rate.csv", csv_text(["n", "l1", "bound", "err"], rows))
    manifest.notes["row_seconds"] = [[r.n, r.seconds] for r in table.rows]
    manifest.notes["power_ladder"] = table.power_ladder
    summary = {
        "constant": table.constant,
        "n0": table.n0,
        "beta": table.beta,
        "alpha": config.alpha,
        "rows": [
            {"n": r.n, "l1": r.l1, "bound": r.bound, "err": r.error} for r in table.rows
        ],
        "audit": report.to_json_dict() if report is not None else None,
        "audit_overridden": override_audit,
        "bound_violations": [f"n={r.n}" for r in violation.rows] if violation else [],
        "config": config.raw,
    }
    manifest.artifact("summary.json", dumps_canonical(summary))
    if violation is not None:
        raise violation
    return table


def _note_evaluation(manifest: _Manifest, space: GaussianSpace) -> None:
    """Record the row counts of the head/tail split basis evaluation runs at."""
    split = space.split()
    manifest.notes["basis_rows"] = {
        "head": split.head_rows,
        "tail": split.tail.size,
        "full": space.size,
    }


def cmd_llt(args) -> int:
    with _run(args, "llt") as (config, manifest):
        config.require_llt_fields(config.space_dimension, config.space_max_degree)
        manifest.notes["derived_seeds"] = {
            "distance_stream": child_seed(config.seed, STREAM_DISTANCE)
        }
        space = config.build_space()
        _note_evaluation(manifest, space)
        with manifest.stage("density"):
            density = resolve_density(config.density, space)
        table = _sweep(manifest, config, density, None, args.override_audit)
    print(
        f"llt: PASS (C={table.constant:.6g}, n0={table.n0}, rows={len(table.rows)})"
    )
    return EXIT_OK


def cmd_validate(args) -> int:
    with _run(args, "validate") as (config, manifest):
        section = config.validate
        if section is None:
            raise ConfigError("validate needs a 'validate' section")
        with manifest.stage("identities"):
            results = run_identity_suite(
                dimension=section.dimension,
                max_degree=section.max_degree,
                seed=config.seed,
                inject_error=section.inject_error,
                ks_samples=section.ks_samples,
            )
        passed = all(r.passed for r in results)
        payload = {
            "inject_error": section.inject_error,
            "identities": [r.to_json_dict() for r in results],
            "all_passed": passed,
        }
        manifest.artifact("validate.json", dumps_canonical(payload))
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        print(f"identity {r.name}: {mark} (err={r.max_error:.3g}, tol={r.tolerance:.3g})")
    return EXIT_OK if passed else EXIT_VIOLATION


def cmd_sde(args) -> int:
    with _run(args, "sde") as (config, manifest):
        section = config.sde
        if section is None:
            raise ConfigError("sde needs an 'sde' section")
        if config.n_values:
            # the sweep runs on the space of the path's steps
            config.require_llt_fields(section.steps, section.max_degree)
        manifest.notes["derived_seeds"] = {
            "path_stream_block0": child_seed(config.seed, STREAM_PATHS, 0)
        }
        space = GaussianSpace(section.steps, section.max_degree)
        drift, grid = drift_from_config(section.drift), PathGrid(section.steps)
        with manifest.stage("simulate"):
            draw = simulate_drift_shifts(drift, grid, section.paths, seed=config.seed)
        _note_evaluation(manifest, space)
        with manifest.stage("density"):
            density = shift_mixture(draw.measure, space)
            report = audit_density(density, config.audit_grid)
        payload = {
            "drift": section.drift,
            "steps": section.steps,
            "paths": section.paths,
            "novikov_estimate": draw.novikov.estimate,
            "novikov_standard_error": draw.novikov.standard_error,
            "drift_energy_estimate": draw.energy.estimate,
            "drift_energy_standard_error": draw.energy.standard_error,
            "drift_energy_passed": draw.energy_passed,
            "exponential_integrability": draw.measure.exponential_integrability(),
            "audit": report.to_json_dict(),
        }
        manifest.artifact("sde_report.json", dumps_canonical(payload))
        manifest.artifact("density.json", chaos_to_json(density))
        manifest.artifact("shifts.json", dumps_canonical(draw.measure.to_json_dict()))
        ok = draw.energy_passed and report.all_passed
        if ok and config.n_values:
            _sweep(manifest, config, density, report, args.override_audit)
    print(
        f"sde: {'PASS' if ok else 'FAIL'} (novikov={draw.novikov.estimate:.6g}, "
        f"drift_energy={draw.energy.estimate:.6g} +- {draw.energy.standard_error:.2g})"
    )
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_build_xi(args) -> int:
    with _run(args, "build-xi") as (config, manifest):
        space = config.build_space()
        with manifest.stage("series"):
            density = gaussian_cov_limit(config.density, space)
            norms = limit_l2_norms(density)
        manifest.artifact("xi_series.json", dumps_canonical(density.to_json_dict()))
        report = {
            "g2": density.g2,
            "eigenvalues": density.eigenvalues,
            "l2_tail_sq": density.l2_tail_sq,
            "norm_sq_series": norms.series_value,
            "norm_sq_eigenproduct": norms.determinant_value,
            "norm_sq_scalar_frobenius": norms.scalar_frobenius_value,
        }
        manifest.artifact("xi_report.json", dumps_canonical(report))
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
            "--override-audit",
            action="store_true",
            help="run even if the assumption audit fails (outputs are watermarked)",
        )
        p.set_defaults(handler=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except USAGE_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except VIOLATIONS as exc:
        print(f"{args.command}: FAIL ({exc})", file=sys.stderr)
        return EXIT_VIOLATION


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
