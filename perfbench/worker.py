"""One measurement process of the benchmark; `run.py` starts a fresh one each time.

``setup`` mode times importing the CLI and building each space of the plan
with its lazy tables filled. ``pass`` mode runs the plan's CLI commands once,
as a user's fresh CLI process would, and records their wall and CPU time, the
process's peak resident set and, with --traced, the span metrics. Results go
to the JSON file named by --result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from perfbench.workloads import Op  # noqa: E402  (imports neither numpy nor wickllt)


def run_setup(plan: dict) -> dict:
    start = time.perf_counter()
    import numpy as np

    import wickllt.cli  # noqa: F401  every CLI invocation pays this import
    from wickllt.basis import ChaosVector, GaussianSpace, eval_many
    from wickllt.measures import WeightedShifts, shift_mixture
    from wickllt.wick import wick_product

    for d, k, uses_shifts in plan["spaces"]:
        space = GaussianSpace(d, k)
        coeffs = np.full(space.size, 1e-3)
        coeffs[0] = 1.0
        f = ChaosVector(space, coeffs)
        # Top-degree content on both sides makes wick_product build the
        # overflow table too, where the space affords one.
        wick_product(f, f)
        eval_many(f, np.zeros((1, d)))
        if uses_shifts:
            shift_mixture(WeightedShifts(np.ones(1), np.zeros((1, d))), space)
    return {"setup_s": time.perf_counter() - start}


def _run_op(main, op: Op, out_dir: Path) -> int:
    try:
        return main(op.argv(out_dir))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:
        # Boundary: a crashing command is a failed operation, not a crashed run.
        traceback.print_exc()
        return -1


def machine_info() -> dict:
    import numpy as np
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
    }


def run_pass(plan: dict, traced: bool, out_root: Path) -> dict:
    import wickllt.cli as cli

    from perfbench import tracing

    ops = [Op(*op) for op in plan["ops"]]
    tracer = tracing.Tracer()
    missing: list[str] = []
    if traced:
        undo, missing = tracing.install(tracer)
    cpu0, t0 = os.times(), time.perf_counter()
    codes = [_run_op(cli.main, op, out_root / op.name) for op in ops]
    t1, cpu1 = time.perf_counter(), os.times()
    if traced:
        undo()
    return {
        "traced": traced,
        "run_s": t1 - t0,
        "cpu_s": (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system),
        "codes": codes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": tracing.aggregate(tracer.spans).get(0, {}),
        "missing_targets": missing,
        "machine": machine_info(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "pass"))
    parser.add_argument("--work", required=True, help="run directory holding plan.json")
    parser.add_argument("--result", required=True, help="JSON file to write")
    parser.add_argument("--out", help="artifact directory of the pass")
    parser.add_argument("--traced", action="store_true", help="record spans")
    args = parser.parse_args(argv)
    plan = json.loads((Path(args.work) / "plan.json").read_text())
    if args.mode == "setup":
        result = run_setup(plan)
    else:
        result = run_pass(plan, args.traced, Path(args.out))
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
