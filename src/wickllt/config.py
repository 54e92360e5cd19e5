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
from typing import NamedTuple

import numpy as np

from .basis import MAX_DEGREE, MAX_DIMENSION, ChaosVector, GaussianSpace, axis_product
from .limit_density import gaussian_limit_series
from .measures import shift_mixture, WeightedShifts
from .quadrature import MAX_QUADRATURE_DIM
from .sde import drift_from_config

SCHEMA_VERSION = 1
# n enters the row scaling sqrt(alpha / n) and the bound C / sqrt(n) as a
# float, which holds every integer only up to 2**53
MAX_SUMMANDS = 2**53
# Largest array of draws or points a config may ask for, in floats (800 MB):
# paths times steps, distance points times their dimension and the rows the
# sweep evaluates there, and six KS sample arrays.
MAX_ENTRIES = 10**8


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


def _finite(value, name: str) -> np.ndarray:
    """value as a new float array whose entries are all finite numbers; a
    NaN, an infinity or a non-number is a ConfigError."""
    try:
        arr = np.array(value, dtype=float)
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
    samples: int = 20000

    def __post_init__(self) -> None:
        if self.method not in ("quadrature", "mc"):
            raise ConfigError(
                f"distance.method must be 'quadrature' or 'mc', got {self.method!r}"
            )
        # the Monte-Carlo error bar is a sample standard deviation
        _number(self.samples, "distance.samples", int, 2)

    @staticmethod
    def coarse_nodes(max_degree: int) -> int:
        """Quadrature nodes per axis of the coarse rule; the fine rule doubles them."""
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


def _drift(data, where: str) -> dict:
    """data if it is a drift section that drift_from_config accepts; an
    unknown kind or a missing or bad parameter is a ConfigError."""
    try:
        drift_from_config(_object(data, where))
    except KeyError as exc:
        raise ConfigError(
            f"{where} of kind {data.get('kind')!r} needs a {exc.args[0]!r} field"
        ) from exc
    except (ConfigError, TypeError, ValueError) as exc:
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
    sde: SdeSection | None = None
    validate: ValidateSection | None = None
    raw: dict = field(default_factory=dict)

    def build_space(self) -> GaussianSpace:
        if self.space_dimension is None or self.space_max_degree is None:
            raise ConfigError("config does not define a space section")
        return GaussianSpace(self.space_dimension, self.space_max_degree)

    def require_llt_fields(self, dimension: int | None, max_degree: int | None) -> None:
        """Check the fields a rate sweep reads; dimension and max_degree are
        those of the swept space (None when the config has no space section,
        which build_space reports)."""
        if self.alpha is None or not self.n_values:
            raise ConfigError("this command needs 'alpha' and 'n_values'")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must lie strictly inside (0, 1), got {self.alpha}")
        if dimension is None or max_degree is None:
            return
        if max_degree < 3:
            raise ConfigError(
                f"a rate sweep needs max_degree >= 3 (its rate constant is zero by "
                f"construction below), but the swept space has max_degree {max_degree}"
            )
        if self.distance.method == "quadrature" and dimension > MAX_QUADRATURE_DIM:
            raise ConfigError(
                f"quadrature distance is limited to dimension <= {MAX_QUADRATURE_DIM}, but "
                f"the swept space has dimension {dimension}; use distance.method 'mc'"
            )
        points = self.distance.points(dimension, max_degree)
        entries = points * (dimension + len(self.n_values))
        if entries > MAX_ENTRIES:
            raise ConfigError(
                f"the {self.distance.method} distance evaluates {points} points of dimension "
                f"{dimension} for {len(self.n_values)} rows, {entries} entries, more than "
                f"{MAX_ENTRIES}"
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
            "sde": False,
            "validate": False,
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
        dim = _number(data["space"]["dimension"], "space.dimension", int, 1, MAX_DIMENSION)
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
        "sde": (
            SdeSection,
            {
                "drift": _drift,
                "steps": _int(1, MAX_DIMENSION),
                "paths": _int(2),
                "max_degree": _int(0, MAX_DEGREE),
            },
        ),
        "validate": (
            ValidateSection,
            {
                "dimension": _int(1, MAX_DIMENSION),
                "max_degree": _int(2, MAX_DEGREE),  # the suite places degree-2 kernels
                "inject_error": _identity,
                # one-dimensional draws: below 1,000 the injected convolution error
                # escapes some seeds, and the KS check holds six arrays of them
                "ks_samples": _int(1000, MAX_ENTRIES // 6),
            },
        ),
    }
    sections = {
        key: _section(cls, data[key], key, checks)
        for key, (cls, checks) in kinds.items()
        if key in data
    }
    sde = sections.get("sde")
    if sde is not None and sde.paths * sde.steps > MAX_ENTRIES:
        raise ConfigError(
            f"sde.paths times sde.steps is {sde.paths * sde.steps}, more than {MAX_ENTRIES} "
            f"drift values"
        )
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
        raw=data,
        **sections,
    )


class Density(NamedTuple):
    """A resolved density section: its vector, its kind, and the structure the
    vector loses: the axis coefficients of product_hermite, the WeightedShifts
    of shift_mixture or the whole LimitDensity of gaussian_cov, else None."""

    vector: ChaosVector
    kind: str = "coefficients"
    structure: object = None


@np.errstate(over="ignore", invalid="ignore")
def require_finite(f: ChaosVector) -> ChaosVector:
    """f if its coefficients and norm are finite, else a ConfigError naming
    the first degree where its L2 mass, summed without warnings, is not."""
    bad = np.flatnonzero(~np.isfinite(np.cumsum(f.degree_norms_sq())))
    if bad.size:
        raise ConfigError(
            f"density is not finite: its coefficients or L2 mass overflow at degree {bad[0]}"
        )
    return f


@np.errstate(over="ignore", invalid="ignore")
def resolve_density(spec: dict | None, space: GaussianSpace) -> Density:
    """Build the density named by a config 'density' section.

    Raw coefficients are taken as given: the assumption audit, which every
    command runs on the result, screens normalization and nonnegativity. A
    parameter its constructor rejects, or an overflow, built without
    warnings, is a ConfigError (require_finite).
    """
    try:
        density = _build_density(spec, space)
    except (TypeError, ValueError) as exc:  # an object among shift_mixture's numbers: TypeError
        raise ConfigError(f"density: {exc}") from exc
    require_finite(density.vector)
    return density


def _build_density(spec: dict | None, space: GaussianSpace) -> Density:
    if spec is None:
        raise ConfigError("this command needs a 'density' section")
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
        return Density(ChaosVector(space, coeffs))
    if kind == "shift_mixture":
        _take(spec, {"kind": True, "weights": True, "shifts": True}, "density")
        nu = WeightedShifts(spec["weights"], spec["shifts"])
        return Density(shift_mixture(nu, space), kind, nu)
    if kind == "gaussian_cov":
        _take(spec, {"kind": True, "g2": True}, "density")
        limit = gaussian_limit_series(_finite(spec["g2"], "density.g2"), space)
        return Density(limit.series, kind, limit)
    if kind == "product_hermite":
        _take(spec, {"kind": True, "axis_coeffs": True}, "density")
        base = _finite(spec["axis_coeffs"], "density.axis_coeffs")
        if base.ndim != 1 or base.size == 0:
            raise ConfigError("density.axis_coeffs must be a non-empty list of numbers")
        if base[0] != 1.0:
            raise ConfigError("product_hermite axis_coeffs must start with 1.0")
        return Density(axis_product(base, space), kind, base)
    raise ConfigError(f"unknown density kind {kind!r}")
