"""Smoke test of the benchmark at tiny sizes.

    PYTHONPATH=src python -m pytest perfbench/test_smoke.py

Checks that every metric named in ``BENCHMARK.json`` is emitted in both
modes for every workload, that the reference checks reject a corrupted
result, and that the run's ``failed`` count and ``error_frac`` count it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import grid  # noqa: E402
import run  # noqa: E402
import spmd  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def _run_cli(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _run_main(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(argv) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted(workload, trace):
    result = _run_cli(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = CONTRACT["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, metric["name"]
    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        layers = sum(v for k, v in values.items() if k.endswith(".self_s"))
        assert layers == pytest.approx(values["trace.profiled_s"], rel=1e-9)
        assert values["trace.profiled_s"] > 0
        assert values["error_frac"] == 0


@pytest.mark.parametrize("name", ["coll_fine", "coll_macro", "app_cg"])
def test_spmd_check_rejects_corruption(name):
    wl = spmd.WORKLOADS[name](5, tiny=True)
    result, _engine, _wall = wl.run()
    clean = wl.check(result.results)
    assert clean.attempted > 0 and clean.failed == 0
    results = list(result.results)
    if name == "coll_fine":
        total, got = results[2][0]
        results[2] = [(total + 1.0, got)] + results[2][1:]
    elif name == "coll_macro":
        results[2] = [results[2][0] * 2.0] + results[2][1:]
    else:
        x, iters, residual = results[2]
        x = x.copy()
        x[0] += 1e-6 * max(1.0, float(np.max(np.abs(x))))
        results[2] = (x, iters, residual)
    assert wl.check(results).failed == 1


def test_grid_checks_reject_corruption():
    inputs = grid.make_inputs(5, tiny=True)
    ref = grid.reference(inputs)
    served = [dict(r) for r in ref.verify_records]
    assert grid.check_verify(served, ref, inputs.verify).failed == 0
    served[1] = {"ok": True, "value": {**served[1]["value"], "ok": False}}
    # the cell and the rendered table both differ
    assert grid.check_verify(served, ref, inputs.verify).failed == 2
    bench = [{"ok": True, "value": v} for v in ref.bench_values]
    assert grid.check_bench(bench, ref, inputs.bench).failed == 0
    bench[0] = {"ok": True, "value": bench[0]["value"] * 1.5}
    assert grid.check_bench(bench, ref, inputs.bench).failed == 2


def _corrupt_image_one(program):
    def corrupted(ctx, *args):
        out = yield from program(ctx, *args)
        if ctx.this_image() == 1:
            out[-1] = out[-1] + 1.0
        return out
    return corrupted


def test_error_frac_counts_a_corrupted_run(monkeypatch):
    make = spmd.WORKLOADS["coll_macro"]

    def corrupted(seed, tiny=False):
        wl = make(seed, tiny)
        wl.program = _corrupt_image_one(wl.program)
        return wl

    monkeypatch.setitem(spmd.WORKLOADS, "coll_macro", corrupted)
    result = _run_main(["--workload", "coll_macro", "--seed", "1",
                        "--seconds", "0.1", "--trace", "1", "--tiny"])
    assert result["correct"] is False
    passes = result["failed"]
    assert passes >= 2  # the warm-up pass and at least one traced pass
    assert result["metrics"]["error_frac"]["value"] == pytest.approx(
        passes / result["attempted"])


def test_error_frac_counts_a_corrupted_served_cell(monkeypatch):
    real = grid.run_job

    def corrupted(url, spec, tenant=None):
        records = real(url, spec, tenant=tenant)
        if spec["kind"] == "verify":
            records[0] = {**records[0], "ok": False}
        return records

    monkeypatch.setattr(grid, "run_job", corrupted)
    result = _run_main(["--workload", "grid_serve", "--seed", "1",
                        "--seconds", "0.1", "--trace", "1", "--tiny"])
    assert result["correct"] is False and result["failed"] > 0
    assert result["metrics"]["error_frac"]["value"] > 0


def test_exits_nonzero_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(CONTRACT))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "coll_fine",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
