"""Byte-stable text serialization: canonical JSON, 17-digit floats, CSV.

All artifacts the experiment pipeline writes go through these helpers, so
that identical inputs produce byte-identical files on every platform.
Floats are emitted with 17 significant digits (lossless for IEEE doubles),
dict keys are sorted, line endings are '\\n'.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Iterable

import numpy as np

from .basis import ChaosVector, GaussianSpace


def fmt17(x: float) -> str:
    """Decimal form of a float with exactly 17 significant digits.

    Scientific notation with 16 fractional digits; enough to round-trip any
    IEEE double and never fewer digits than that (a 'g' format would trim
    trailing zeros).
    """
    x = float(x)
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".16e")


def _emit(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt17(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return _emit(obj.tolist())
    if isinstance(obj, (list, tuple)):
        if all(type(v) is float for v in obj):
            # a flat float array (a float ndarray arrives here by tolist); "%.16e"
            # is fmt17 on finite values, and only nan and inf put an "n" in it
            text = ("%.16e," * len(obj)) % tuple(obj)
            return "[" + (",".join(map(fmt17, obj)) if "n" in text else text[:-1]) + "]"
        return "[" + ",".join(_emit(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: kv[0])
        return "{" + ",".join(json.dumps(str(k)) + ":" + _emit(v) for k, v in items) + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps_canonical(obj) -> str:
    """Canonical JSON text: sorted keys, 17-digit floats, no whitespace."""
    return _emit(obj) + "\n"


def chaos_to_json(vec: ChaosVector) -> str:
    """ChaosVector wire format: {dimension, max_degree, coeffs} in table order."""
    payload = {
        "dimension": vec.space.dimension,
        "max_degree": vec.space.max_degree,
        "coeffs": vec.coeffs.tolist(),
    }
    return dumps_canonical(payload)


def chaos_from_json(text: str, space: GaussianSpace | None = None) -> ChaosVector:
    data = json.loads(text)
    d = int(data["dimension"])
    k = int(data["max_degree"])
    if space is None:
        space = GaussianSpace(d, k)
    elif space.dimension != d or space.max_degree != k:
        raise ValueError(
            f"serialized vector is (d={d}, K={k}), target space is "
            f"(d={space.dimension}, K={space.max_degree})"
        )
    coeffs = np.asarray(data["coeffs"], dtype=float)
    return ChaosVector(space, coeffs)


def csv_text(header: Iterable[str], rows: Iterable[Iterable]) -> str:
    """CSV with '\\n' endings; floats in 17-digit form, '.' decimal separator."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, (float, np.floating)):
                cells.append(fmt17(float(cell)))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def write_text(path, text: str) -> None:
    with open(path, "wb") as fh:
        fh.write(text.encode("utf-8"))


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()
