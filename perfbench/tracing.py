"""Spans around calls into wickllt's modules, recorded from outside the library.

`install` replaces each target function in every wickllt module namespace
that binds it with a wrapper that records a span, so a module that imported
a function by name (``harness`` imports ``wick_power`` and ``eval_many``)
gets its own wrapper. It also wraps ``GaussianSpace.__post_init__`` and the
builder handed to ``GaussianSpace.cached``, which time the space and its
lazy table builds. Spans stay in memory; `aggregate` turns them into
per-pass metrics. Spans nest by call order, which assumes the program runs
on one thread (the CLI default).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import pkgutil
import sys
import time
from collections import defaultdict


class Span:
    __slots__ = ("name", "start", "end", "parent", "pass_id", "counts")

    def __init__(self, name, start, end, parent, pass_id, counts=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.pass_id = pass_id
        self.counts = counts


class Tracer:
    """Span recorder; `pass_id` tags the spans of the pass being run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.pass_id = 0
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs, counter=None):
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), None, parent, self.pass_id)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if counter is not None:
            span.counts = counter(args, kwargs, result)
        return result


def _bound(fn, counter):
    # Counters read arguments by name, whatever way the caller passed them.
    sig = inspect.signature(fn)

    def count(args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return counter(bound.arguments, result)

    return count


def _eval_counts(a, result):
    points = len(result)
    return {"points": points, "cells": a["f"].space.size * points}


def _pair_counts(a, result):
    f, policy = a["f"], a["policy"]
    cap = f.space.max_degree if policy is None else policy.cap_degree
    return {"pairs": math.comb(2 * f.space.dimension + cap, cap)}


def _paths(a, result):
    return {"paths": a["paths"]}


# (defining module, function, span name, counter or None)
TARGETS = (
    ("basis", "eval_many", "basis.eval_many", _eval_counts),
    ("wick", "wick_product", "wick.wick_product", _pair_counts),
    ("wick", "wick_power", "wick.wick_power", None),
    ("wick", "center_density", "wick.center_density", None),
    ("wick", "gamma", "wick.gamma", None),
    ("limit_density", "gaussian_limit_series", "limit_density.gaussian_limit_series", None),
    ("audit", "audit_density", "audit.audit_density", None),
    ("measures", "shift_mixture", "measures.shift_mixture", lambda a, r: {"atoms": a["nu"].count}),
    ("measures", "sample", "measures.sample", lambda a, r: {"draws": a["count"]}),
    ("measures", "from_coefficients", "measures.from_coefficients", None),
    ("sde", "simulate_drift_shifts", "sde.simulate_drift_shifts", _paths),
    ("sde", "mean_square_drift_estimate", "sde.mean_square_drift_estimate", _paths),
    ("sde", "novikov_estimate", "sde.novikov_estimate", _paths),
    ("sde", "novikov_from_shifts", "sde.novikov_from_shifts", None),
    ("harness", "rate_sweep", "harness.rate_sweep", lambda a, r: {"rows": len(r[0].rows)}),
    ("harness", "sum_density", "harness.sum_density", None),
    ("harness", "l1_distance", "harness.l1_distance", None),
    ("harness", "rate_constant", "harness.rate_constant", None),
    ("serialize", "dumps_canonical", "serialize.dumps_canonical", lambda a, r: {"bytes": len(r)}),
    ("serialize", "chaos_to_json", "serialize.chaos_to_json", None),
    ("identities", "run_identity_suite", "identities.run_identity_suite", None),
    ("cli", "cmd_audit", "cli.audit", None),
    ("cli", "cmd_llt", "cli.llt", None),
    ("cli", "cmd_validate", "cli.validate", None),
    ("cli", "cmd_sde", "cli.sde", None),
    ("cli", "cmd_build_xi", "cli.build-xi", None),
)


def _wrapper(tracer, name, fn, counter):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, counter)

    return traced


def install(tracer: Tracer):
    """Wrap every target; return (undo, names of spans whose target is missing)."""
    import wickllt

    for info in pkgutil.iter_modules(wickllt.__path__):
        importlib.import_module(f"wickllt.{info.name}")
    modules = [m for key, m in sys.modules.items() if key == "wickllt" or key.startswith("wickllt.")]
    patches = []
    missing = []
    for modname, attr, name, counter in TARGETS:
        fn = getattr(sys.modules.get(f"wickllt.{modname}"), attr, None)
        if fn is None:
            missing.append(name)
            continue
        count = _bound(fn, counter) if counter is not None else None
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    patches.append((module, key, fn))
                    setattr(module, key, _wrapper(tracer, name, fn, count))

    space_cls = getattr(sys.modules["wickllt.basis"], "GaussianSpace", None)
    if space_cls is None:
        missing.append("basis.GaussianSpace")
    else:
        post_init, cached = space_cls.__post_init__, space_cls.cached

        def traced_post_init(self):
            return tracer.call("basis.GaussianSpace", post_init, (self,), {})

        def traced_cached(self, key, builder):
            # The builder runs only on a cache miss, so only builds get a span.
            layer = builder.__module__.rsplit(".", 1)[-1]

            def build(space):
                return tracer.call(f"{layer}.{key}", builder, (space,), {})

            return cached(self, key, build)

        patches.append((space_cls, "__post_init__", post_init))
        patches.append((space_cls, "cached", cached))
        space_cls.__post_init__ = traced_post_init
        space_cls.cached = traced_cached

    def undo():
        for owner, key, original in reversed(patches):
            setattr(owner, key, original)

    return undo, missing


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def aggregate(spans: list[Span]) -> dict[int, dict[str, float]]:
    """Per pass id: NAME.s, NAME.self_s, NAME.calls, NAME.<count>, LAYER.<count>.

    NAME.s sums the spans of NAME that have no ancestor of the same name;
    NAME.self_s sums each span's duration minus the part of it that its
    child spans cover. LAYER is the part of NAME before the first dot.
    """
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(i)
    out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for i, span in enumerate(spans):
        m = out[span.pass_id]
        duration = span.end - span.start
        kids = [
            (max(spans[k].start, span.start), min(spans[k].end, span.end)) for k in children[i]
        ]
        m[f"{span.name}.self_s"] += duration - _covered(kids)
        m[f"{span.name}.calls"] += 1
        ancestor = span.parent
        while ancestor >= 0 and spans[ancestor].name != span.name:
            ancestor = spans[ancestor].parent
        if ancestor < 0:
            m[f"{span.name}.s"] += duration
        layer = span.name.split(".", 1)[0]
        for key, value in (span.counts or {}).items():
            m[f"{span.name}.{key}"] += value
            m[f"{layer}.{key}"] += value
    return {pid: dict(m) for pid, m in out.items()}


def layer_self_seconds(metrics: dict[str, float]) -> dict[str, float]:
    """Self seconds summed per layer, from one pass's aggregate."""
    per_layer: dict[str, float] = defaultdict(float)
    for key, value in metrics.items():
        if key.endswith(".self_s"):
            per_layer[key.split(".", 1)[0]] += value
    return dict(per_layer)
