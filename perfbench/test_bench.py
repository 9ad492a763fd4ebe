"""Tests of the benchmark itself:  python3 -m pytest perfbench -q

They run the benchmark for one pass per workload (``--seconds 1``), so they
take about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import check
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def traced():
    """One traced pass of every workload: workload -> (stdout, parsed result)."""
    out = {}
    for w in workloads.WORKLOADS:
        proc = run_bench("--workload", w, "--seed", "3", "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        out[w] = (proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def _walk(node):
    yield node
    if isinstance(node, dict):
        for v in node.values():
            yield from _walk(v)
    elif isinstance(node, list):
        for v in node:
            yield from _walk(v)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(workload):
    assert workloads.generate(workload, 11) == workloads.generate(workload, 11)
    assert workloads.generate(workload, 11) != workloads.generate(workload, 12)
    batch = workloads.generate(workload, 11)
    assert len(batch) == len(workloads.pool(workload))
    # unused optional fields are left out, never written as null
    assert all(v is not None for e in batch for v in _walk(e.config))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_references_cover_every_variant(workload):
    refs = check.load_refs(workload)
    for exp in workloads.all_variants(workload):
        assert refs[exp.id]["rc"] == exp.expect_rc, exp.id


def test_check_tolerance():
    csv_ref = "t,value,rel_gap,provenance\n4.0,2.5e-01,1.0e-16,grid\n"
    ref = {"rc": 0, "files": {"a.csv": csv_ref, "a_summary.json": '{"residual": 1e-4, "max": 0.25}'}}

    def problems(value, gap="1.0e-16", residual=1e-4, provenance="grid"):
        text = f"t,value,rel_gap,provenance\n4.0,{value},{gap},{provenance}\n"
        summary = json.dumps({"residual": residual, "max": 0.25})
        return check.compare(0, {"a.csv": text, "a_summary.json": summary}, ref, 1e-6)

    assert problems("2.5e-01") == []
    assert problems(repr(0.25 * (1 + 1e-15))) == []
    assert problems(repr(0.25 * (1 + 1e-11)))
    assert problems("2.5e-01", gap="3.0e-16", residual=1e-4 + 1e-15) == []
    assert problems("2.5e-01", provenance="fit")
    assert check.compare(2, {}, ref, 1e-6)
    assert check.compare(1, {}, {"rc": 1, "files": {}}, 1e-6) == []


def test_bench_json_lists_the_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert {w["name"]: w["why"] for w in BENCH["workloads"]} == workloads.WHY


def test_end_to_end_metrics_printed_with_units():
    proc = run_bench("--workload", "small-batch", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(ln.split()[1:2] == [name] and ln.split()[3] == unit
                   for ln in proc.stdout.splitlines()[:-1]), name


def test_per_layer_metrics_printed_with_units(traced):
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    for stdout, result in traced.values():
        assert result["correct"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        for name, unit in expected.items():
            assert any(ln.split()[1:2] == [name] and ln.split()[3] == unit
                       for ln in stdout.splitlines()[:-1]), name


def test_per_layer_targets_name_metrics_and_a_workload():
    from tracing import PER_LAYER
    end_to_end = {m["name"] for m in BENCH["end_to_end"]}
    for name, _unit, target in PER_LAYER:
        if name.startswith("trace."):
            continue
        metrics, _, workload = target.partition(" on ")
        assert workload in workloads.WORKLOADS, name
        assert set(metrics.split(", ")) <= end_to_end, name


def _self_s(metrics, module):
    return metrics[f"{module}.self_share"]["value"] * metrics["trace.wall_s"]["value"]


def test_dominant_layers(traced):
    m = traced["sweep-1d"][1]["metrics"]
    self_times = {k: v["value"] for k, v in m.items() if k.endswith(".self_s")}
    assert max(self_times, key=self_times.get) == "grid_field.moment_profile.self_s"

    m = traced["spectral"][1]["metrics"]
    self_times = {k: v["value"] for k, v in m.items() if k.endswith(".self_s")}
    assert max(self_times, key=self_times.get) == "propagators.propagate.self_s"

    m = traced["small-batch"][1]["metrics"]
    ours = _self_s(m, "cli") + _self_s(m, "spaces")
    for module in ("grid_field", "propagators", "functionals", "witness"):
        assert ours > _self_s(m, module), module


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("--workload", "small-batch", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
