"""Self-test of the benchmark, at tiny input sizes.

    python3 -m pytest -q perfbench/selftest.py

Runs every workload with tracing off and on, checks that every metric
BENCHMARK.json names is emitted with its unit, that the tracer restores every
attribute it patched, that the output checks reject wrong outputs, and that
the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.E2E_METRICS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        list(run.PER_LAYER_METRICS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "1", "--seconds", "0",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def _run_tiny(workload, tmp_path):
    import depthwl.cli

    case = workloads.make_case(workload, "tiny", 2, tmp_path)
    assert depthwl.cli.main(case.args) == 0
    return case


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tracer_restores_patched_attributes(workload, tmp_path):
    before = [vars(owner)[attr] for owner, attr in
              (tracer._resolve(target) for target, _ in tracer.PATCHES)]
    t = tracer.Tracer()
    t.install()
    try:
        assert t.unrestored()  # installed: every target is a wrapper
        _run_tiny(workload, tmp_path)
    finally:
        t.uninstall()
    assert t.unrestored() == []
    after = [vars(owner)[attr] for owner, attr in
             (tracer._resolve(target) for target, _ in tracer.PATCHES)]
    assert all(a is b for a, b in zip(before, after))
    metrics = tracer.layer_metrics(t.spans)
    assert metrics["depth.empirical_calls"] >= 1


def _corrupt_fit(case):
    doc = json.loads(case.outputs[0].read_text())
    doc["roots"][0]["params"]["mu"][0] += 1e-3
    case.outputs[0].write_text(json.dumps(doc))


def _corrupt_simulate(case):
    text = case.outputs[0].read_text().splitlines()
    cells = text[1].split(",")
    cells[8] = str(int(cells[8]) + 1000)  # retrieved > reps
    text[1] = ",".join(cells)
    case.outputs[0].write_text("\n".join(text) + "\n")


def _corrupt_depth(case):
    text = case.outputs[0].read_text()
    case.outputs[0].write_text(text.replace(",0.", ",1.", 1))


@pytest.mark.parametrize("workload, corrupt", [
    ("fit-multistart", _corrupt_fit),
    ("simulate-grid", _corrupt_simulate),
    ("depth-projection", _corrupt_depth),
])
def test_oracles_reject_wrong_output(workload, corrupt, tmp_path):
    case = _run_tiny(workload, tmp_path)
    verdict = case.judge()
    assert verdict.ok and verdict.failed_ops == 0
    corrupt(case)
    verdict = case.judge()
    assert not verdict.ok and verdict.failed_ops == case.ops


def test_stored_reference_comparison_uses_tolerance():
    ref = {"n_roots": 1, "selected": 0, "roots": [[0.0, 1.0, 2.0, 0.5, 3.0]]}
    near = {"n_roots": 1, "selected": 0, "roots": [[1e-7, 1.0, 2.0, 0.5, 3.0]]}
    far = {"n_roots": 1, "selected": 0, "roots": [[1e-4, 1.0, 2.0, 0.5, 3.0]]}
    assert workloads._compare_fit(near, ref)[0]
    assert not workloads._compare_fit(far, ref)[0]
    assert not workloads._compare_fit(dict(near, selected=1), ref)[0]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "fit-multistart", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
