"""JSON experiment configuration: versioned schema, fail-closed parsing.

Unknown fields are rejected at every nesting level so a config written for a
different schema version cannot silently change meaning. One master seed per
config; all random streams are derived from it through the documented
sub-stream scheme in streams.py.
"""

from __future__ import annotations

import functools
import json
import numbers
import sys
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from .audit import GridSpec
from .basis import MAX_DEGREE, ChaosVector, GaussianSpace
from .limit_density import LimitDensity, gaussian_limit_series
from .measures import rank_one_quadratic, shift_mixture, WeightedShifts
from .quadrature import MAX_RULE_NODES
from .sde import PathGrid, drift_from_config, sde_density

SCHEMA_VERSION = 1
# n enters the row scaling sqrt(alpha / n) and the bound C / sqrt(n) as a
# float, which holds every integer only up to 2**53
MAX_SUMMANDS = 2**53


class ConfigError(Exception):
    """Malformed or unknown configuration content."""


def _object(data, where: str) -> dict:
    """data if it is a JSON object; anything else is a ConfigError."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be an object, got {data!r}")
    return data


def _take(data, allowed: dict[str, bool], where: str) -> None:
    # allowed maps field name -> required?
    _object(data, where)
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown field(s) {unknown} in {where}")
    missing = sorted(k for k, req in allowed.items() if req and k not in data)
    if missing:
        raise ConfigError(f"missing required field(s) {missing} in {where}")


def _number(value, name: str, kind: type = int, minimum=None, maximum=None):
    """value as kind (int, or float for any finite real), within
    [minimum, maximum] where given.

    A bool, a string, a float where an integer is wanted, or a real that is
    NaN, infinite or beyond the float range is a ConfigError.
    """
    wanted = numbers.Integral if kind is int else numbers.Real
    if not isinstance(value, wanted) or isinstance(value, bool):
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    if kind is float and not abs(value) <= sys.float_info.max:  # NaN fails it too
        raise ConfigError(f"{name} must be finite, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be at least {minimum}, got {value!r}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{name} must be at most {maximum}, got {value!r}")
    return kind(value)


def _int(minimum=None, maximum=None):
    """A field check: an integer within [minimum, maximum] where given."""
    return functools.partial(_number, kind=int, minimum=minimum, maximum=maximum)


_real = functools.partial(_number, kind=float)


def _flag(value, name: str) -> bool:
    """value if it is a JSON boolean; anything else (the string "false"
    among them) is a ConfigError."""
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    return value


def _finite(value, name: str) -> np.ndarray:
    """value as a float array whose entries are all finite numbers; a NaN, an
    infinity or a non-number is a ConfigError."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be numbers: {exc}") from exc
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        where = f" at entry {bad[0]}" if arr.ndim else ""
        raise ConfigError(f"{name} must be finite, got {float(arr.flat[bad[0]])}{where}")
    return arr


# marks a section field that must be present although it has a default (the
# default then applies only when the whole section is absent)
_REQUIRED = {"required": True}


def _section(cls, data, where: str, checks: dict):
    """cls built from the config section data.

    The fields of the dataclass cls are the section's keys: a field without
    a default, or marked _REQUIRED, must be present, and an absent one keeps
    its default. checks maps a field to the function that vets a given
    value, called as check(value, "where.field").
    """
    required = {f.name: f.metadata.get("required", f.default is MISSING) for f in fields(cls)}
    _take(data, required, where)
    return cls(**{k: checks[k](v, f"{where}.{k}") if k in checks else v for k, v in data.items()})


@dataclass(frozen=True)
class DistanceConfig:
    method: str = field(default="quadrature", metadata=_REQUIRED)
    nodes_per_axis: int | None = None
    samples: int = 20000
    max_quadrature_dim: int = 3

    def __post_init__(self) -> None:
        if self.method not in ("quadrature", "mc"):
            raise ConfigError(
                f"distance.method must be 'quadrature' or 'mc', got {self.method!r}"
            )
        if self.nodes_per_axis is not None:
            _number(self.nodes_per_axis, "distance.nodes_per_axis", int, 1)
        # the Monte-Carlo error bar is a sample standard deviation
        _number(self.samples, "distance.samples", int, 2)
        _number(self.max_quadrature_dim, "distance.max_quadrature_dim", int, 1)

    def coarse_nodes(self, max_degree: int) -> int:
        """Quadrature nodes per axis of the coarse rule; the fine rule doubles them."""
        if self.nodes_per_axis is not None:
            return self.nodes_per_axis
        return max(2 * max_degree, 8)

    def points(self, dimension: int, max_degree: int) -> int:
        """Points at which l1_distances evaluates its rows: the samples, or
        the nodes of the coarse and the fine tensor rule."""
        if self.method == "mc":
            return self.samples
        nodes = self.coarse_nodes(max_degree)
        return nodes**dimension + (2 * nodes) ** dimension


@dataclass(frozen=True)
class SdeSection:
    drift: dict
    steps: int
    paths: int
    max_degree: int
    run_llt: bool = False
    novikov_ceiling: float = 1e15


def _drift(data, where: str) -> dict:
    """data if it is a drift section that drift_from_config accepts; an
    unknown kind or a missing or bad parameter is a ConfigError."""
    try:
        drift_from_config(_object(data, where))
    except KeyError as exc:
        raise ConfigError(
            f"{where} of kind {data.get('kind')!r} needs a {exc.args[0]!r} field"
        ) from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return dict(data)


def _identity(value, name: str) -> str | None:
    """value if it names an identity of the suite, or is null."""
    from .identities import IDENTITY_NAMES  # identities imports harness, which imports config

    if value not in (None, *IDENTITY_NAMES):
        raise ConfigError(f"{name} must be null or one of {list(IDENTITY_NAMES)}, got {value!r}")
    return value


@dataclass(frozen=True)
class ValidateSection:
    dimension: int = 2
    max_degree: int = 8
    inject_error: str | None = None
    ks_samples: int = 20000


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    space_dimension: int | None = None
    space_max_degree: int | None = None
    density: dict | None = None
    alpha: float | None = None
    n_values: tuple[int, ...] = ()
    distance: DistanceConfig = field(default_factory=DistanceConfig)
    audit_grid: GridSpec = field(default_factory=GridSpec)
    sde: SdeSection | None = None
    validate: ValidateSection | None = None
    record_wall_times: bool = False
    raw: dict = field(default_factory=dict)

    def build_space(self) -> GaussianSpace:
        if self.space_dimension is None or self.space_max_degree is None:
            raise ConfigError("config does not define a space section")
        return GaussianSpace(self.space_dimension, self.space_max_degree)

    def require_llt_fields(
        self, dimension: int | None, max_degree: int | None, need_density: bool = True
    ) -> None:
        """Check the fields a rate sweep reads; dimension and max_degree are
        those of the swept space (None when the config has no space section,
        which build_space reports)."""
        if need_density and self.density is None:
            raise ConfigError("this command needs a 'density' section")
        if self.alpha is None or not self.n_values:
            raise ConfigError("this command needs 'alpha' and 'n_values'")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must lie strictly inside (0, 1), got {self.alpha}")
        if max_degree is not None and max_degree < 3:
            raise ConfigError(
                f"a rate sweep needs max_degree >= 3 (its rate constant is zero by "
                f"construction below), but the swept space has max_degree {max_degree}"
            )
        limit = self.distance.max_quadrature_dim
        if self.distance.method == "quadrature" and dimension is not None and dimension > limit:
            raise ConfigError(
                f"quadrature distance is limited to dimension <= {limit} "
                f"(distance.max_quadrature_dim), but the swept space has dimension "
                f"{dimension}; use distance.method 'mc'"
            )
        if self.distance.method == "quadrature" and max_degree is not None:
            nodes = self.distance.coarse_nodes(max_degree)
            if 2 * nodes > MAX_RULE_NODES:
                raise ConfigError(
                    f"quadrature distance is limited to {MAX_RULE_NODES // 2} nodes per axis "
                    f"(its error estimate doubles them, and the Gauss-Hermite rule stops at "
                    f"{MAX_RULE_NODES}), but this sweep needs {nodes}; lower "
                    f"distance.nodes_per_axis or use distance.method 'mc'"
                )


def load_config(path) -> ExperimentConfig:
    """Read, parse and validate a config file; raises ConfigError with diagnostics."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: line {exc.lineno}, {exc.msg}") from exc
    return parse_config(data)


def parse_config(data) -> ExperimentConfig:
    """Validate decoded config JSON; raises ConfigError with diagnostics."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    _take(
        data,
        {
            "schema_version": True,
            "seed": True,
            "space": False,
            "density": False,
            "alpha": False,
            "n_values": False,
            "distance": False,
            "audit_grid": False,
            "sde": False,
            "validate": False,
            "record_wall_times": False,
        },
        "config root",
    )
    if data["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported schema_version {data['schema_version']!r}, expected {SCHEMA_VERSION}"
        )
    dim = maxdeg = None
    if "space" in data:
        _take(data["space"], {"dimension": True, "max_degree": True}, "space")
        dim = _number(data["space"]["dimension"], "space.dimension", int, 1)
        maxdeg = _number(data["space"]["max_degree"], "space.max_degree", int, 0, MAX_DEGREE)
    alpha = _number(data["alpha"], "alpha", float) if "alpha" in data else None
    if alpha is not None and not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie strictly inside (0, 1), got {alpha}")
    n_values = data.get("n_values", [])
    if not isinstance(n_values, list):
        raise ConfigError(f"n_values must be a list of integers, got {n_values!r}")
    n_values = tuple(_number(n, "each of n_values", int, 1) for n in n_values)
    if any(n > MAX_SUMMANDS for n in n_values):
        raise ConfigError(f"each of n_values must be at most 2**53, got {max(n_values)}")
    # each optional section, keyed by its ExperimentConfig field: its
    # dataclass and the checks of its fields (DistanceConfig vets itself)
    kinds = {
        "distance": (DistanceConfig, {}),
        "audit_grid": (
            GridSpec,
            {"points_per_axis": _int(1), "halfwidth": _real, "mc_points": _int(1), "seed": _int()},
        ),
        "sde": (
            SdeSection,
            {
                "drift": _drift,
                "steps": _int(1),
                "paths": _int(1),
                "max_degree": _int(0, MAX_DEGREE),
                "run_llt": _flag,
                "novikov_ceiling": _real,
            },
        ),
        "validate": (
            ValidateSection,
            {
                "dimension": _int(1),
                "max_degree": _int(0, MAX_DEGREE),
                "inject_error": _identity,
                "ks_samples": _int(1),
            },
        ),
    }
    sections = {
        key: _section(cls, data[key], key, checks)
        for key, (cls, checks) in kinds.items()
        if key in data
    }
    sde = sections.get("sde")
    if sde is not None and dim is not None and (dim, maxdeg) != (sde.steps, sde.max_degree):
        raise ConfigError(
            f"space (dimension {dim}, max_degree {maxdeg}) disagrees with the space of the "
            f"sde section (steps {sde.steps}, max_degree {sde.max_degree})"
        )
    if "density" in data and "kind" not in _object(data["density"], "density"):
        raise ConfigError("density section needs a 'kind' field")
    return ExperimentConfig(
        seed=_number(data["seed"], "seed", int),
        space_dimension=dim,
        space_max_degree=maxdeg,
        density=dict(data["density"]) if "density" in data else None,
        alpha=alpha,
        n_values=n_values,
        record_wall_times=_flag(data.get("record_wall_times", False), "record_wall_times"),
        raw=data,
        **sections,
    )


def gaussian_cov_limit(spec: dict | None, space: GaussianSpace) -> LimitDensity:
    """The limit density that a density section of kind 'gaussian_cov' names.

    A missing or non-finite g2, or one that is not a symmetric kernel of the
    space's dimension, is a ConfigError; a kernel that breaks the standing
    hypotheses raises AssumptionViolationError.
    """
    if spec is None or spec.get("kind") != "gaussian_cov":
        raise ConfigError("this command needs a density of kind 'gaussian_cov'")
    _take(spec, {"kind": True, "g2": True}, "density")
    try:
        return gaussian_limit_series(_finite(spec["g2"], "density.g2"), space)
    except ValueError as exc:
        raise ConfigError(f"density: {exc}") from exc


def resolve_density(spec: dict, space: GaussianSpace, seed: int) -> ChaosVector:
    """Build the density named by a config 'density' section.

    Raw coefficients are taken as given: the assumption audit, which every
    command runs on the result, screens normalization and nonnegativity.
    """
    kind = spec.get("kind")
    if kind == "coefficients":
        _take(spec, {"kind": True, "terms": False, "coeffs": False}, "density")
        if "coeffs" in spec:
            coeffs = _finite(spec["coeffs"], "density.coeffs")
            if coeffs.shape != (space.size,):
                raise ConfigError(
                    f"density.coeffs has shape {coeffs.shape}, expected {space.size} "
                    f"coefficients for (d={space.dimension}, K={space.max_degree})"
                )
        else:
            coeffs = np.zeros(space.size)
            coeffs[0] = 1.0
            terms = spec.get("terms", [])
            if not isinstance(terms, list):
                raise ConfigError(f"density.terms must be a list, got {terms!r}")
            for term in terms:
                _take(term, {"index": True, "coeff": True}, "density.terms entry")
                try:
                    coeffs[space.position(term["index"])] = _finite(
                        term["coeff"], "density.terms coeff"
                    )
                except ValueError as exc:
                    raise ConfigError(f"density.terms entry: {exc}") from exc
        return ChaosVector(space, coeffs)
    if kind == "shift_mixture":
        _take(spec, {"kind": True, "weights": True, "shifts": True}, "density")
        try:
            return shift_mixture(WeightedShifts.from_json_dict(spec), space)
        except ValueError as exc:
            raise ConfigError(f"density: {exc}") from exc
    if kind == "gaussian_cov":
        return gaussian_cov_limit(spec, space).series
    if kind == "rank_one_quadratic":
        _take(spec, {"kind": True, "g": True}, "density")
        try:
            return rank_one_quadratic(_finite(spec["g"], "density.g"), space)
        except ValueError as exc:
            raise ConfigError(f"density: {exc}") from exc
    if kind == "product_hermite":
        _take(spec, {"kind": True, "axis_coeffs": True}, "density")
        base = _finite(spec["axis_coeffs"], "density.axis_coeffs")
        if base.ndim != 1 or base.size == 0:
            raise ConfigError("density.axis_coeffs must be a non-empty list of numbers")
        if base[0] != 1.0:
            raise ConfigError("product_hermite axis_coeffs must start with 1.0")
        padded = np.zeros(space.max_degree + 1)
        padded[: min(base.size, padded.size)] = base[: padded.size]
        return ChaosVector(space, np.prod(padded[space.indices], axis=1))
    if kind == "sde":
        _take(spec, {"kind": True, "drift": True, "paths": True}, "density")
        drift = drift_from_config(_drift(spec["drift"], "density.drift"))
        paths = _number(spec["paths"], "density.paths", int, 1)
        return sde_density(drift, PathGrid(space.dimension), paths, space, seed=seed)
    raise ConfigError(f"unknown density kind {kind!r}")
