"""Command-line front end: audit, llt, validate, sde, build-xi.

Exit codes: 0 all checks pass; 1 a hypothesis or bound violation; 2 a usage
or configuration error. A command either returns 0 or raises, and main alone
turns the exception into the exit code and one stderr line. A failed verdict
of the assumption audit, of the sde drift-energy gate or of the identity
suite raises through audit.require_passed. Every run that writes an
artifact writes a manifest with the config echo, derived seeds, per-stage
wall times, and SHA-256 digests of the artifacts. The artifacts themselves
are byte-stable: rerunning with the same config and seed reproduces them
exactly, because measured wall times, those of the rate rows among them, go
to the manifest only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import sys
import time
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .audit import AssumptionViolationError, audit_density, require_passed, verdicts_json
from .basis import BasisTooLargeError, GaussianSpace, InsufficientDegreeError, power_sum_chunk
from .config import ConfigError, Density, ExperimentConfig, load_config, parse_config
from .config import require_finite, resolve_density
from .harness import BoundViolationError, RateTable, rate_sweep
from .identities import run_identity_suite
from .limit_density import limit_l2_norms
from .measures import DensityValidationError, shift_mixture
from .sde import SdeNumericError, drift_from_config, simulate_drift_shifts
from .serialize import chaos_to_json, csv_text, dumps_canonical
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

    def artifact(self, name: str, to_data: Callable[..., str | bytes], *args) -> None:
        """Write to_data(*args), text (as UTF-8) or bytes, to the file name in
        the output directory and record the digest of its bytes; the time
        taken, formatting included, adds to the write stage."""
        start = time.perf_counter()
        data = to_data(*args)
        if isinstance(data, str):
            data = data.encode("utf-8")
        (self.out / name).write_bytes(data)
        self.artifacts[name] = hashlib.sha256(data).hexdigest()
        elapsed = time.perf_counter() - start
        self.stage_seconds["write"] = self.stage_seconds.get("write", 0.0) + elapsed

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
        (self.out / "manifest.json").write_bytes(dumps_canonical(payload).encode("utf-8"))


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
        shape = config.space_shape()
        with manifest.stage("build_density"):
            density = resolve_density(config.density, *shape)
        with manifest.stage("audit"):
            report = audit_density(density)
        payload = report.to_json_dict()
        if density.kind == "shift_mixture":
            nu = density.structure
            payload["shift_variance_total"] = nu.shift_variance_total()
            payload["exponential_integrability"] = nu.exponential_integrability()
        manifest.artifact("audit.json", dumps_canonical, payload)
        require_passed(report.verdicts)
    print("audit: PASS")
    return EXIT_OK


def _sweep(manifest: _Manifest, config: ExperimentConfig, density: Density, report) -> RateTable:
    """The rate sweep of llt and of sde with n_values, written to rate.csv and
    summary.json. A bound violation writes them too, listing its rows, and
    then propagates; report is the audit the caller already ran, or None."""
    manifest.notes["distance_points"] = config.distance.points(*density.shape)
    violation = None
    try:
        with manifest.stage("sweep"):
            table, report = rate_sweep(config, density=density, report=report)
    except BoundViolationError as exc:
        violation, table, report = exc, exc.table, exc.report
    rows = [(r.n, r.l1, r.bound, r.error) for r in table.rows]
    manifest.artifact("rate.csv", csv_text, ["n", "l1", "bound", "err"], rows)
    manifest.notes["row_seconds"] = [[r.n, r.seconds] for r in table.rows]
    manifest.notes["power_ladder"] = table.power_ladder
    manifest.notes["pairs"], manifest.notes["pair_bytes"] = table.pairs
    summary = {
        "constant": table.constant,
        "n0": table.n0,
        "beta": table.beta,
        "alpha": config.alpha,
        "rows": [
            {"n": r.n, "l1": r.l1, "bound": r.bound, "err": r.error} for r in table.rows
        ],
        "audit": report.to_json_dict(),
        "bound_violations": [f"n={r.n}" for r in violation.rows] if violation else [],
        "config": config.raw,
    }
    manifest.artifact("summary.json", dumps_canonical, summary)
    if violation is not None:
        raise violation
    return table


def _note_evaluation(manifest: _Manifest, density: Density) -> None:
    """Record the sizes evaluation runs at: the points per chunk of
    eval_axis_products for a product_hermite density, else the row counts of
    the head/tail split of its space, the rows of its partial table and its
    points per chunk."""
    if density.kind == "product_hermite":
        manifest.notes["power_sums"] = {"chunk": power_sum_chunk(*density.shape)}
        return
    space = density.vector.space
    split = space.split()
    rows = {"head": split.head_rows, "tail": split.tail.size, "full": space.size}
    manifest.notes["basis_rows"] = {**rows, "contracted": split.contracted, "chunk": split.chunk}


def cmd_llt(args) -> int:
    with _run(args, "llt") as (config, manifest):
        config.require_llt_fields(config.space_dimension, config.space_max_degree)
        manifest.notes["derived_seeds"] = {
            "distance_stream": child_seed(config.seed, STREAM_DISTANCE)
        }
        shape = config.space_shape()
        with manifest.stage("density"):
            density = resolve_density(config.density, *shape)
        _note_evaluation(manifest, density)
        table = _sweep(manifest, config, density, None)
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
        payload = {
            "inject_error": section.inject_error,
            "identities": verdicts_json(results),
            "all_passed": all(v.passed for v in results.values()),
        }
        manifest.artifact("validate.json", dumps_canonical, payload)
    for name, v in results.items():
        mark = "PASS" if v.passed else "FAIL"
        print(f"identity {name}: {mark} (err={v.measured:.3g}, tol={v.threshold:.3g})")
    require_passed(results, "identity suite")
    return EXIT_OK


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
        drift = drift_from_config(section.drift)
        with manifest.stage("simulate"):
            draw = simulate_drift_shifts(drift, section.steps, section.paths, seed=config.seed)
        with manifest.stage("density"):
            with np.errstate(over="ignore", invalid="ignore"):  # require_finite reports it
                density = require_finite(shift_mixture(draw.measure, space))
            report = audit_density(density)
        _note_evaluation(manifest, Density(density))
        report.verdicts["drift_energy"] = draw.drift_energy
        payload = {
            "drift": section.drift,
            "steps": section.steps,
            "paths": section.paths,
            "novikov_estimate": draw.novikov.estimate,
            "novikov_standard_error": draw.novikov.standard_error,
            "drift_energy_estimate": draw.energy.estimate,
            "drift_energy_standard_error": draw.energy.standard_error,
            # repeats the audit's drift_energy verdict; perfbench/checks.py reads it
            "drift_energy_passed": report.verdicts["drift_energy"].passed,
            "audit": report.to_json_dict(),
        }
        manifest.artifact("sde_report.json", dumps_canonical, payload)
        manifest.artifact("density.json", chaos_to_json, density)
        nu = draw.measure
        manifest.artifact("shifts.f64", nu.to_f64_bytes)
        header = {"dtype": "<f8", "file": "shifts.f64", "shape": [nu.count, 1 + nu.dimension]}
        header["sha256"] = manifest.artifacts["shifts.f64"]
        manifest.artifact("shifts.json", dumps_canonical, header)
        require_passed(report.verdicts)
        novikov, energy = draw.novikov, draw.energy
        del draw, nu  # the sweep reads none of the atoms
        if config.n_values:
            _sweep(manifest, config, Density(density), report)
    print(
        f"sde: PASS (novikov={novikov.estimate:.6g}, "
        f"drift_energy={energy.estimate:.6g} +- {energy.standard_error:.2g})"
    )
    return EXIT_OK


def cmd_build_xi(args) -> int:
    with _run(args, "build-xi") as (config, manifest):
        if (config.density or {}).get("kind") != "gaussian_cov":
            raise ConfigError("this command needs a density of kind 'gaussian_cov'")
        with manifest.stage("series"):
            density = resolve_density(config.density, *config.space_shape()).structure
            norms = limit_l2_norms(density)
        manifest.artifact("xi_series.json", dumps_canonical, density.to_json_dict())
        report = {
            "g2": density.g2,
            "eigenvalues": density.eigenvalues,
            "l2_tail_sq": density.l2_tail_sq,
            "norm_sq_series": norms.series_value,
            "norm_sq_eigenproduct": norms.determinant_value,
            "norm_sq_scalar_frobenius": norms.scalar_frobenius_value,
        }
        manifest.artifact("xi_report.json", dumps_canonical, report)
    print(f"build-xi: wrote series with {density.series.space.size} coefficients")
    return EXIT_OK


def _commands() -> dict[str, Callable]:
    """Each command's handler, read from the module on every call."""
    return {
        "audit": cmd_audit,
        "llt": cmd_llt,
        "validate": cmd_validate,
        "sde": cmd_sde,
        "build-xi": cmd_build_xi,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wickllt",
        description="Gaussian-space density convergence experiments",
    )
    parser.add_argument("command", choices=_commands())
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _commands()[args.command](args)
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
