"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from perfbench import checks, run, tracing, workloads  # noqa: E402
from perfbench.tracing import Span, aggregate  # noqa: E402


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("a.root", 0.0, 10.0, -1, 0),
        Span("b.child", 1.0, 4.0, 0, 0),
        Span("b.child", 3.0, 6.0, 0, 0),  # overlaps its sibling: union is [1, 6]
        Span("c.leaf", 2.0, 3.0, 1, 0, {"points": 5}),
        Span("a.root", 0.0, 2.0, -1, 1),
    ]
    per_pass = aggregate(spans)
    m = per_pass[0]
    assert m["a.root.self_s"] == pytest.approx(5.0)
    assert m["b.child.self_s"] == pytest.approx(2.0 + 3.0)
    assert m["c.leaf.self_s"] == pytest.approx(1.0)
    assert m["b.child.calls"] == 2
    assert m["c.leaf.points"] == 5 and m["c.points"] == 5
    assert per_pass[1] == {"a.root.self_s": 2.0, "a.root.calls": 1, "a.root.s": 2.0}


def test_inclusive_time_counts_only_the_outermost_span_of_a_name():
    spans = [
        Span("w.f", 0.0, 8.0, -1, 0),
        Span("w.f", 1.0, 3.0, 0, 0),
        Span("w.g", 4.0, 6.0, 0, 0),
        Span("w.f", 4.5, 5.0, 2, 0),
    ]
    m = aggregate(spans)[0]
    assert m["w.f.s"] == pytest.approx(8.0)
    assert m["w.f.calls"] == 3
    assert m["w.f.self_s"] == pytest.approx((8 - 4) + 2 + 0.5)
    assert m["w.g.self_s"] == pytest.approx(1.5)


def test_install_wraps_each_binding_site_and_undo_restores():
    import numpy as np

    import wickllt.harness as harness
    import wickllt.wick as wick
    from wickllt.basis import ChaosVector, GaussianSpace

    originals = (wick.wick_power, harness.wick_power, harness.eval_many)
    tracer = tracing.Tracer()
    undo, missing = tracing.install(tracer)
    try:
        assert missing == []
        assert wick.wick_power is not originals[0]
        assert harness.wick_power is not wick.wick_power
        space = GaussianSpace(2, 4)
        f = ChaosVector(space, np.r_[1.0, np.zeros(space.size - 1)])
        harness.wick_power(f, 3)
    finally:
        undo()
    assert (wick.wick_power, harness.wick_power, harness.eval_many) == originals
    m = aggregate(tracer.spans)[0]
    assert m["basis.GaussianSpace.calls"] == 1
    assert m["wick.wick_power.calls"] == 1
    assert m["wick.wick_product.calls"] == 2
    assert m["wick.wick_product.pairs"] == 2 * math.comb(2 * 2 + 4, 4)
    assert m["wick.pair_table.calls"] == 1  # built once, then cached


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """One real llt command's output directory and its op."""
    from wickllt.cli import main

    base = tmp_path_factory.mktemp("sweep")
    (op,) = [o for o in workloads.make_configs(ROOT, "battery_small", 7, base / "configs") if o.name == "llt_cubic_d1"]
    out = base / "pass0" / op.name
    assert main(op.argv(out)) == 0
    return base, op


def _fresh_copy(sweep, tmp_path):
    base, op = sweep
    work = tmp_path / "work"
    shutil.copytree(base / "pass0", work / "pass0")
    return work, op


def test_corrupted_reference_value_is_counted(sweep, tmp_path):
    work, op = _fresh_copy(sweep, tmp_path)
    good = checks.rate_result(work / "pass0" / op.name)
    passes = [{"codes": [0], "traced": False}]
    assert run.check_run([op], passes, work, {op.name: good}) == (1, 0, [])
    for corrupt in ("constant", "l1", "err"):
        ref = json.loads(json.dumps(good))
        if corrupt == "constant":
            ref["constant"] *= 1 + 1e-7
        else:
            ref["rows"][1][1 if corrupt == "l1" else 3] *= 1 + 1e-7
        attempted, failed, reasons = run.check_run([op], passes, work, {op.name: ref})
        assert (attempted, failed) == (1, 1), corrupt
        assert "reference" in reasons[0]


def test_forced_bound_violation_and_exit_code_are_counted(sweep, tmp_path):
    work, op = _fresh_copy(sweep, tmp_path)
    summary_path = work / "pass0" / op.name / "summary.json"
    summary = json.loads(summary_path.read_text())
    row = summary["rows"][-1]
    row["l1"] = row["bound"] + row["err"] + 1e-6
    summary_path.write_text(json.dumps(summary))
    passes = [{"codes": [0], "traced": False}]
    attempted, failed, reasons = run.check_run([op], passes, work, None)
    assert (attempted, failed) == (1, 1) and "> bound" in reasons[0]
    assert run.check_run([op], [{"codes": [1], "traced": False}], work, None)[1] == 1


def test_artifacts_that_change_between_passes_are_counted(sweep, tmp_path):
    work, op = _fresh_copy(sweep, tmp_path)
    shutil.copytree(work / "pass0", work / "pass1")
    with open(work / "pass1" / op.name / "rate.csv", "a") as fh:
        fh.write("\n")
    passes = [{"codes": [0], "traced": False}, {"codes": [0], "traced": True}]
    assert run.check_run([op], passes, work, None)[:2] == (2, 1)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_reaches_the_program_only_through_the_config(workload, tmp_path):
    a = workloads.make_configs(ROOT, workload, 11, tmp_path / "a")
    b = workloads.make_configs(ROOT, workload, 12, tmp_path / "b")
    for op_a, op_b in zip(a, b):
        data_a = json.loads(Path(op_a.config).read_text())
        data_b = json.loads(Path(op_b.config).read_text())
        assert (data_a.pop("seed"), data_b.pop("seed")) == (11, 12)
        assert data_a == data_b
        argv = op_a.argv(tmp_path / "out")
        assert argv == [op_a.command, "--config", op_a.config, "--out", str(tmp_path / "out")]


def test_generated_llt_config_is_the_stated_one(tmp_path):
    (op,) = workloads.make_configs(ROOT, "llt_wick_d5", 5, tmp_path)
    data = json.loads(Path(op.config).read_text())
    assert data["space"] == {"dimension": 5, "max_degree": 14}
    assert data["n_values"] == [4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144]
    assert data["distance"] == {"method": "mc", "samples": 1000}


def _run_bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def test_traced_counts_repeat_across_runs():
    names = [item["name"] for item in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    counts = []
    for _ in range(2):
        proc = _run_bench(ROOT, "--workload", "battery_small", "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        assert sorted(result["metrics"]) == sorted(names)
        counts.append({k: v["value"] for k, v in result["metrics"].items() if k.endswith(run.COUNT_SUFFIXES)})
    assert counts[0] == counts[1]
    assert counts[0]["wick.wick_product.calls"] >= 300
    assert counts[0]["basis.eval_many.calls"] >= 100


def test_without_the_source_tree_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench(tmp_path, "--workload", "battery_small", "--seconds", "1")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
