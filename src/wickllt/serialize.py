"""Byte-stable text serialization: canonical JSON, 17-digit floats, CSV.

All text artifacts the experiment pipeline writes go through these helpers,
so that identical inputs produce byte-identical files on every platform.
Floats are emitted with 17 significant digits (lossless for IEEE doubles),
dict keys are sorted, line endings are '\\n'.
"""

from __future__ import annotations

import json
import math
from typing import Iterable

import numpy as np

from .basis import ChaosVector


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


# Values formatted per call by _finite_array: a block this size keeps the
# Python floats and text alive at once near 100 KB each.
BLOCK_VALUES = 4096


def _finite_array(arr: np.ndarray) -> str:
    """Canonical JSON of a finite float array of one or more dimensions.

    "%.16e" is fmt17 on a finite value, so one format string of the nesting
    of a block of rows formats the whole block in one call.
    """
    form = "%.16e"
    for size in reversed(arr.shape[1:]):
        form = "[" + ",".join([form] * size) + "]"
    step = max(1, BLOCK_VALUES * len(arr) // max(1, arr.size))
    texts = (
        ",".join([form] * len(block)) % tuple(block.ravel().tolist())
        for block in (arr[i : i + step] for i in range(0, len(arr), step))
    )
    return "[" + ",".join(texts) + "]"


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
        if obj.ndim and obj.dtype.kind == "f" and np.isfinite(obj).all():
            return _finite_array(obj)
        return _emit(obj.tolist())
    if isinstance(obj, (list, tuple)):
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
        "coeffs": vec.coeffs,
    }
    return dumps_canonical(payload)


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

