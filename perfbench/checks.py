"""Correctness checks on the artifacts one CLI command wrote.

An operation fails on a nonzero exit, a missing artifact, a rate row with
l1 > bound + err, a failed identity or audit verdict, a result that differs
from the stored reference for its seed, or artifacts that differ from the
first pass of the same run.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

# Relative tolerance against the stored reference; values below the absolute
# floor are evaluation noise (the fixed-point sweep's distances are ~1e-16),
# the same floor the program's own bound gate uses.
REL_TOL = 1e-9
ABS_FLOOR = 1e-12

ARTIFACTS = {
    "llt": ("rate.csv", "summary.json"),
    "sde": ("rate.csv", "summary.json", "density.json", "shifts.json", "sde_report.json"),
    "validate": ("validate.json",),
    "audit": ("audit.json",),
    "build-xi": ("xi_series.json", "xi_report.json"),
}


def digests(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every artifact except the manifest, which holds wall times."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(out_dir).iterdir())
        if p.is_file() and p.name != "manifest.json"
    }


def rate_result(out_dir: Path) -> dict:
    """C and the (n, l1, bound, err) rows of a sweep, from summary.json."""
    summary = json.loads((Path(out_dir) / "summary.json").read_text())
    return {
        "constant": summary["constant"],
        "rows": [[r["n"], r["l1"], r["bound"], r["err"]] for r in summary["rows"]],
    }


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= max(REL_TOL * max(abs(a), abs(b)), ABS_FLOOR)


def op_failures(command: str, code: int, out_dir: Path, reference: dict | None) -> list[str]:
    """Reasons the operation failed; empty when it passed."""
    out_dir = Path(out_dir)
    if code != 0:
        return [f"exit code {code}"]
    missing = [name for name in ARTIFACTS[command] if not (out_dir / name).is_file()]
    if missing:
        return [f"missing artifact {name}" for name in missing]
    reasons = []
    verdicts = {
        "validate.json": lambda d: d["all_passed"],
        "audit.json": lambda d: d["all_passed"],
        "sde_report.json": lambda d: d["audit"]["all_passed"] and d["drift_energy_passed"],
        "summary.json": lambda d: d["audit"] is None or d["audit"]["all_passed"],
    }
    for name, passed in verdicts.items():
        if name in ARTIFACTS[command] and not passed(json.loads((out_dir / name).read_text())):
            reasons.append(f"{name}: verdict failed")
    if "summary.json" not in ARTIFACTS[command]:
        return reasons
    result = rate_result(out_dir)
    for n, l1, bound, err in result["rows"]:
        if l1 > bound + err + ABS_FLOOR:
            reasons.append(f"n={n}: l1={l1:.6g} > bound={bound:.6g} + err={err:.6g}")
    if reference is not None and "constant" in reference:
        if not _close(result["constant"], reference["constant"]):
            reasons.append(f"C={result['constant']!r} differs from reference {reference['constant']!r}")
        ref_rows = {row[0]: row for row in reference["rows"]}
        if sorted(ref_rows) != [row[0] for row in result["rows"]]:
            reasons.append("rows differ in n from the reference")
        for n, l1, _, err in result["rows"]:
            ref = ref_rows.get(n)
            if ref is not None and not (_close(l1, ref[1]) and _close(err, ref[3])):
                reasons.append(f"n={n}: (l1, err)=({l1!r}, {err!r}) differs from reference")
    return reasons
