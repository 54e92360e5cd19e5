#!/usr/bin/env python3
"""Run the full experiment battery and collect the artifacts.

Covers the identity validation suite, the assumption audit of the mixture
example, the rate sweeps of the three test densities (cubic in d=1, mixture
in d=2, drift measure in d=8), a cross-dimension sweep over product
densities, the path-space pipeline, and the limit-density export. Each stage
is a CLI invocation, so everything here is reproducible from the written
configs alone.

Usage:
    python scripts/run_experiments.py [--out results]
"""

import argparse
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from wickllt.cli import main as cli_main  # noqa: E402

STAGES = [
    ("validate", "validate_default.json", "identity suite"),
    ("audit", "audit_mixture.json", "mixture assumption audit"),
    ("llt", "llt_fixed_point.json", "fixed-point sweep (distances vanish)"),
    ("llt", "llt_cubic_d1.json", "cubic density, d=1"),
    ("llt", "llt_mixture_d2.json", "shift mixture, d=2"),
    ("llt", "dimension_sweep_d4.json", "product density, d=4"),
    ("sde", "sde_sin_d8.json", "drift measure pipeline, d=8"),
    ("build-xi", "build_xi_d2.json", "limit-density export, d=2"),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output root directory")
    args = parser.parse_args()

    out_root = Path(args.out)
    out_root.mkdir(parents=True, exist_ok=True)

    failures = []
    for command, config_name, label in STAGES:
        config = REPO / "configs" / config_name
        stage_out = out_root / config_name.replace(".json", "")
        start = time.perf_counter()
        code = cli_main([command, "--config", str(config), "--out", str(stage_out)])
        elapsed = time.perf_counter() - start
        status = "ok" if code == 0 else f"exit {code}"
        print(f"[{status:>7}] {label:<40} {elapsed:6.1f}s -> {stage_out}")
        if code != 0:
            failures.append(label)

    if failures:
        print(f"\n{len(failures)} stage(s) failed: {', '.join(failures)}")
        return 1
    print(f"\nall stages passed; artifacts under {out_root}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
