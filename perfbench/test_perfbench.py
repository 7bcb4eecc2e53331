"""Tests of the benchmark harness itself, on the smoke inputs.

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import magloop  # noqa: E402
import magloop.cli  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args],
                          capture_output=True, text=True, timeout=300,
                          cwd=cwd)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_declared_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"], proc.stderr
    assert report["failed"] == 0 and report["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert set(report["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert report["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        assert report["metrics"]["trace.coverage"]["value"] >= 0.9
    else:
        assert all(report["metrics"][m["name"]]["value"] > 0
                   for m in declared)


def test_without_the_package_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "plane_path", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path,
                 script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_same_seed_same_inputs_and_default_seed_is_shipped_config():
    for name in workloads.WORKLOADS:
        assert workloads.make_inputs(name, 3) == workloads.make_inputs(name, 3)
    plane = json.loads((ROOT / "configs" / "plane_larmor.json").read_text())
    assert workloads.make_inputs("plane_path", 0).config == plane
    assert workloads.make_inputs("plane_path", 1).config != plane


def test_run_gate_rejects_an_unexpected_outcome(tmp_path):
    inputs = workloads.make_inputs("plane_path", 0, smoke=True)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(inputs.config))
    out = tmp_path / "out"
    code = magloop.cli.main(["run", "--config", str(cfg),
                             "--output-dir", str(out)])
    assert workloads.check_run(magloop, inputs, out, code).ok
    strict = dataclasses.replace(inputs, expect_case="ConvergedExtremal",
                                 expect_exit=0, residual_max=1e-2)
    verdict = workloads.check_run(magloop, strict, out, code)
    assert not verdict.ok and len(verdict.problems) == 3


def test_shoot_gate_rejects_no_candidates():
    inputs = workloads.make_inputs("torus_shoot", 0)
    assert not workloads.check_shoot(magloop, inputs, None, []).ok


def test_tracer_wraps_every_binding_and_restores_them():
    engine = magloop.minimax._engine
    assert magloop.continuation._engine is engine
    with Tracer() as tracer:
        assert magloop.continuation._engine is magloop.minimax._engine
        assert magloop.minimax._engine is not engine
        assert magloop.minimax._engine.__wrapped__ is engine
        assert magloop.cli.continuation_run is \
            magloop.continuation.continuation_run
    assert magloop.minimax._engine is engine
    assert magloop.continuation._engine is engine
    assert "minimax._engine" in tracer.present


def test_absent_name_is_left_out_not_zero():
    tracer = Tracer({"minimax": ("_reinterp_row", "_no_such_stage"),
                     "loops": ("NoSuchClass.method",)})
    with tracer:
        pass
    assert tracer.absent == {"minimax._no_such_stage",
                             "loops.NoSuchClass.method"}
    metrics = tracer.metrics(1.0)
    assert "minimax.reinterp.s" in metrics
    assert "minimax.refine.s" not in metrics
    assert "loops.loop_new" not in metrics
