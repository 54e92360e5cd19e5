#!/usr/bin/env python3
"""Run one benchmark workload of wickllt and print its metrics.

    python3 perfbench/run.py --workload sde_d8 --seed 20250811 --seconds 25 --trace 0

Writes the workload's configs for the seed, times the set-up in fresh
processes, then runs the workload's CLI commands once per fresh process, pass
after pass, for --seconds, and checks every artifact. The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are BENCHMARK.json's end_to_end list,
with --trace 1 its per_layer list, both as medians over the run's passes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import checks, tracing, workloads  # noqa: E402

SETUP_REPEATS = 5
PASS_TIMEOUT = 120
BLAS_THREADS = 1
WORK_ROOT = ROOT / ".perfbench_work"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
COUNT_SUFFIXES = (".calls", ".points", ".cells", ".pairs", ".atoms", ".draws", ".paths", ".rows", ".bytes")


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


def _worker(mode: str, work: Path, timeout: float, *extra: str) -> dict:
    result = work / f"{mode}.result.json"
    result.unlink(missing_ok=True)
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"), mode, "--work", str(work), "--result", str(result), *extra]
    with open(work / f"{mode}.log", "ab") as log:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=log, stderr=log, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0 or not result.is_file():
        tail = (work / f"{mode}.log").read_text(errors="replace")[-2000:]
        raise BenchError(f"{mode} worker exited with {proc.returncode}:\n{tail}")
    return json.loads(result.read_text())


def write_plan(work: Path, workload: str, seed: int) -> list[workloads.Op]:
    """Write the configs and plan.json the workers read; return the ops."""
    ops = workloads.make_configs(ROOT, workload, seed, work / "configs")
    plan = {"ops": [[op.name, op.command, op.config] for op in ops], "spaces": workloads.spaces(ops)}
    (work / "plan.json").write_text(json.dumps(plan, indent=1))
    return ops


def discard(work: Path) -> None:
    """Remove a run directory, and the work root once it is empty."""
    shutil.rmtree(work, ignore_errors=True)
    if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
        WORK_ROOT.rmdir()


def run_passes(work: Path, seconds: float, trace: bool) -> list[dict]:
    """Passes, each in a fresh process, until `seconds` are spent (at least two).

    A traced run alternates untraced and traced passes, so drift in the
    machine's speed falls on both alike.
    """
    passes = []
    start = time.perf_counter()
    while True:
        k = len(passes)
        traced = trace and k % 2 == 1
        t0 = time.perf_counter()
        extra = ["--out", str(work / f"pass{k}")] + (["--traced"] if traced else [])
        passes.append(_worker("pass", work, PASS_TIMEOUT, *extra))
        now = time.perf_counter()
        # Stop when another pass would overrun the budget by more than half a pass.
        if len(passes) >= 2 and now - start + 0.5 * (now - t0) > seconds:
            return passes


def source_digest() -> dict:
    """The git commit measured (None outside a git checkout) and a digest of src/."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            commit = out.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"git_commit": commit, "src_sha256": h.hexdigest()}


def check_run(ops, passes, work: Path, reference: dict | None) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) over every operation of every pass."""
    attempted = failed = 0
    reasons = []
    first = {}
    for k, result in enumerate(passes):
        for op, code in zip(ops, result["codes"]):
            out_dir = work / f"pass{k}" / op.name
            ref = (reference or {}).get(op.name)
            why = checks.op_failures(op.command, code, out_dir, ref)
            if not why:
                sums = checks.digests(out_dir)
                first.setdefault(op.name, sums)
                if sums != first[op.name]:
                    why = ["artifacts differ from the first pass"]
            attempted += 1
            if why:
                failed += 1
                reasons.append(f"pass {k} {op.name}: " + "; ".join(why))
    return attempted, failed, reasons


def digest_changes(ops, work: Path, reference: dict) -> list[str]:
    """Artifacts whose digest differs from the stored one (informational)."""
    changed = []
    for op in ops:
        stored = reference.get(op.name, {}).get("sha256", {})
        out_dir = work / "pass0" / op.name
        if not out_dir.is_dir():
            continue
        now = checks.digests(out_dir)
        changed += [f"{op.name}/{name}" for name in sorted(stored) if now.get(name) != stored[name]]
    return changed


def layer_metrics(spec: list[dict], passes: list[dict], expected: list[str]) -> tuple[dict, list[str], list[str]]:
    """Per-layer metric values, plus those not measured and counts that vary."""
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    plain_s = statistics.median(p["run_s"] for p in untraced)
    values = {
        "proc.cpu_s": statistics.median(p["cpu_s"] for p in untraced),
        "proc.trace_overhead_frac": statistics.median(p["run_s"] for p in traced) / plain_s - 1.0,
    }
    varying = []
    for item in spec:
        name = item["name"]
        if name in values:
            continue
        key = name[: -len(".build_s")] + ".s" if name.endswith(".build_s") else name
        readings = [p["layers"].get(key, 0.0) for p in traced]
        if name.endswith(COUNT_SUFFIXES):
            if len(set(readings)) > 1:
                varying.append(name)
            values[name] = readings[0]
        else:
            values[name] = statistics.median(readings)
    not_measured = [name for name in expected if values.get(name, 0.0) == 0.0]
    return values, not_measured, varying


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "wickllt" / "cli.py").is_file() or not (ROOT / "configs").is_dir():
        print("perfbench: no wickllt source tree (src/wickllt, configs) next to perfbench/", file=sys.stderr)
        return 2
    stored = json.loads(REFERENCE.read_text())
    entry = stored["workloads"].get(args.workload, {})
    reference = entry.get("ops") if args.seed == stored["seed"] else None

    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        ops = write_plan(work, args.workload, args.seed)
        setup = []
        if not args.trace:
            setup = [_worker("setup", work, 120)["setup_s"] for _ in range(SETUP_REPEATS)]
        passes = run_passes(work, args.seconds, bool(args.trace))
        attempted, failed, reasons = check_run(ops, passes, work, reference)
        changed = digest_changes(ops, work, reference) if reference else []
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        discard(work)

    machine = dict(passes[0]["machine"], **source_digest())
    print("machine: " + json.dumps(machine, sort_keys=True))
    print(
        f"workload {args.workload}, seed {args.seed}: {len(passes)} passes of {len(ops)} "
        f"commands, reference {'checked' if reference else 'absent for this seed'}"
    )
    for reason in reasons:
        print(f"FAILED {reason}")
    if changed:
        print("artifact digests differ from the stored ones: " + ", ".join(changed))
    print(f"  fail_frac {failed / attempted:.6g} ({failed}/{attempted})")
    for traced in (False, True):
        times = " ".join(f"{p['run_s']:.4f}/{p['cpu_s']:.2f}" for p in passes if p["traced"] == traced)
        if times:
            print(f"  {'traced' if traced else 'untraced'} passes, wall/cpu s: {times}")

    if args.trace:
        values, not_measured, varying = layer_metrics(
            bench["per_layer"], passes, entry.get("layers_exercised", [])
        )
        units = {item["name"]: item["unit"] for item in bench["per_layer"]}
        for name in not_measured:
            print(f"  {name}: not measured (reads 0, nonzero in the stored baseline)")
        for name in varying:
            print(f"  {name}: count differs between traced passes")
        missing = sorted({name for p in passes for name in p["missing_targets"]})
        if missing:
            print("  no binding found for: " + ", ".join(missing))
        first = next(p for p in passes if p["traced"])
        shares = sorted(tracing.layer_self_seconds(first["layers"]).items(), key=lambda kv: -kv[1])
        print("  self time by layer, first traced pass: " + ", ".join(
            f"{layer} {sec / first['run_s']:.1%}" for layer, sec in shares
        ))
    else:
        print("  setup_s per process: " + " ".join(f"{t:.4f}" for t in setup))
        values = {
            "run_s": statistics.median(p["run_s"] for p in passes),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "ok_frac": 1.0 - failed / attempted,
        }
        units = {item["name"]: item["unit"] for item in bench["end_to_end"]}
        for name, unit in units.items():
            print(f"  {name} {values[name]:.6g} {unit}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
