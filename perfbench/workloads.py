"""The benchmark's workloads: the CLI commands of one pass and their configs.

The workload seed reaches the program only as the ``seed`` field of the
configs written here; every other field is fixed per workload. Nothing in
this module imports numpy or wickllt, so the set-up timer in the worker
starts before either is loaded.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 20250811

# Why each workload is here (README.md has the longer version):
# - sde_d8: basis evaluation and shift_mixture dominate; Wick algebra is small.
# - llt_wick_d5: Wick products on 1.96 M index pairs dominate.
# - battery_small: many small calls on spaces of at most 495 functions, where
#   per-call overhead of a change tuned for large spaces shows.
LLT_WICK_D5 = {
    "schema_version": 1,
    "space": {"dimension": 5, "max_degree": 14},
    "density": {"kind": "product_hermite", "axis_coeffs": [1.0, 0.0, 0.1, 0.02]},
    "alpha": 0.5,
    "n_values": [4**k for k in range(1, 10)],
    "distance": {"method": "mc", "samples": 1000},
}

# (op name, CLI command, shipped config under configs/ or None for generated)
_OPS = {
    "sde_d8": [("sde_sin_d8", "sde", "sde_sin_d8.json")],
    "llt_wick_d5": [("llt_wick_d5", "llt", None)],
    "battery_small": [
        ("validate_default", "validate", "validate_default.json"),
        ("audit_mixture", "audit", "audit_mixture.json"),
        ("llt_fixed_point", "llt", "llt_fixed_point.json"),
        ("llt_cubic_d1", "llt", "llt_cubic_d1.json"),
        ("llt_mixture_d2", "llt", "llt_mixture_d2.json"),
        ("dimension_sweep_d4", "llt", "dimension_sweep_d4.json"),
        ("build_xi_d2", "build-xi", "build_xi_d2.json"),
    ],
}
WORKLOADS = tuple(_OPS)


@dataclass(frozen=True)
class Op:
    """One CLI command of a pass."""

    name: str
    command: str
    config: str

    def argv(self, out_dir) -> list[str]:
        # No --seed and no --threads: the seed is in the config, and the
        # thread count stays at the CLI default.
        return [self.command, "--config", self.config, "--out", str(out_dir)]


def make_configs(root: Path, workload: str, seed: int, config_dir: Path) -> list[Op]:
    """Write the workload's configs for `seed` into config_dir; return its ops."""
    if workload not in _OPS:
        raise ValueError(f"unknown workload {workload!r}; choose one of {WORKLOADS}")
    config_dir.mkdir(parents=True, exist_ok=True)
    ops = []
    for name, command, shipped in _OPS[workload]:
        if shipped is None:
            data = dict(LLT_WICK_D5)
        else:
            data = json.loads((root / "configs" / shipped).read_text())
        data["seed"] = seed
        path = config_dir / f"{name}.json"
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        ops.append(Op(name, command, str(path)))
    return ops


def spaces(ops: list[Op]) -> list[tuple[int, int, bool]]:
    """(dimension, max_degree, uses shift_mixture) of each space the configs name."""
    found: dict[tuple[int, int], bool] = {}
    for op in ops:
        data = json.loads(Path(op.config).read_text())
        if "space" in data:
            key = (data["space"]["dimension"], data["space"]["max_degree"])
            found[key] = found.get(key, False)
        if "validate" in data:
            key = (data["validate"]["dimension"], data["validate"]["max_degree"])
            found[key] = found.get(key, False)
        if "sde" in data:
            found[(data["sde"]["steps"], data["sde"]["max_degree"])] = True
    return [(d, k, shift) for (d, k), shift in found.items()]
