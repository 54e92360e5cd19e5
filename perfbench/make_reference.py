#!/usr/bin/env python3
"""Rewrite perfbench/reference.json from the current source tree.

    python3 perfbench/make_reference.py

For each workload at the default seed: one untraced and one traced pass.
Stores each sweep's C and (n, l1, bound, err) rows, the SHA-256 digest of
every artifact, and the per-layer metrics that read nonzero (a later reading
of zero for one of these is reported as "not measured"). Refuses to write
if any operation fails its checks. A change that alters results on purpose
reruns this and names the digests it changed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import checks, run, workloads  # noqa: E402


def reference_for(workload: str, seed: int, spec: list[dict]) -> dict:
    work = run.WORK_ROOT / f"reference-{workload}"
    run.discard(work)
    try:
        ops = run.write_plan(work, workload, seed)
        passes = run.run_passes(work, 0.0, trace=True)
        _, failed, reasons = run.check_run(ops, passes, work, None)
        if failed:
            raise SystemExit(f"{workload}: refusing to store a failing reference:\n" + "\n".join(reasons))
        entry = {}
        for op in ops:
            out_dir = work / "pass0" / op.name
            entry[op.name] = {"sha256": checks.digests(out_dir)}
            if "summary.json" in checks.ARTIFACTS[op.command]:
                entry[op.name].update(checks.rate_result(out_dir))
        values, _, _ = run.layer_metrics(spec, passes, [])
        exercised = [name for name, v in values.items() if v != 0.0 and not name.startswith("proc.")]
        return {"ops": entry, "layers_exercised": exercised}
    finally:
        run.discard(work)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    seed = workloads.DEFAULT_SEED
    stored = {"seed": seed, "workloads": {w: reference_for(w, seed, spec) for w in workloads.WORKLOADS}}
    run.REFERENCE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.REFERENCE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
