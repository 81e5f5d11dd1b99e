"""Tests of the benchmark itself (not part of the package's suite).

    python3 -m pytest perfbench -q

Scratch output goes to .bench_runs/ in the checkout, like the benchmark's.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_runs" / "tests"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402
import viscofem.stepper  # noqa: E402

# a few elements and steps: fast, gates against the references will fail
TINY = replace(workloads.WORKLOADS["relax-long"], name="tiny", n=4, tau=0.01, t_end=0.05,
               cadence=0)


def _traced(w, tracer, op_id):
    tracer.op_id = op_id
    tracer.install()
    try:
        op = workloads.run_op(w, 0, str(SCRATCH / f"out-{w.name}"), tracer)
    finally:
        tracer.remove()
    return op, spans.layer_metrics(tracer, op_id)


def _bench(*args, cwd=ROOT, env=None):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=170)


def test_creep_verify_counts_repeat_exactly():
    tracer = spans.Tracer()
    w = workloads.WORKLOADS["creep-verify"]
    first, a = _traced(w, tracer, 1)
    second, b = _traced(w, tracer, 2)
    assert first.failures == [] and second.failures == []
    assert first.digest == second.digest
    for key in ("solver.iterations", "fields.strain_calls", "assembly.stiffness_calls",
                "diagnostics.equilibrium_solves"):
        assert a[key] == b[key], key
    assert a["assembly.stiffness_calls"] == 92
    assert a["diagnostics.equilibrium_solves"] == 90
    assert a["fields.strain_calls_per_step"] == 5


def test_remove_restores_every_attribute():
    original = viscofem.stepper.solve_spd
    tracer = spans.Tracer()
    tracer.install()
    assert viscofem.stepper.solve_spd is not original
    tracer.remove()
    assert viscofem.stepper.solve_spd is original
    assert viscofem.stepper.Simulation.step.__name__ == "step"


def test_missing_target_drops_its_metrics(monkeypatch):
    targets = tuple(t for t in spans.TARGETS if t[2] != "solver.solve")
    monkeypatch.setattr(spans, "TARGETS", targets + (("viscofem.stepper", "gone", "solver.solve"),))
    tracer = spans.Tracer()
    _, metrics = _traced(TINY, tracer, 1)
    assert tracer.missing == ["viscofem.stepper.gone"]
    assert not any(name.startswith("solver.") for name in metrics)
    assert metrics["fields.strain_calls_per_step"] == 5


def test_self_time_subtracts_direct_children():
    tracer = spans.Tracer()
    tracer.spans = [
        ["op", 0.0, 10.0, -1, 1, None],
        ["a", 1.0, 4.0, 0, 1, None],
        ["b", 2.0, 3.0, 1, 1, None],
        ["c", 5.0, 6.0, 0, 1, None],
    ]
    assert tracer.self_times() == [6.0, 2.0, 1.0, 1.0]


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_untraced_run_reports_every_end_to_end_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _bench("--workload", "setup-large", "--seed", "3", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}


def test_traced_run_reports_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _bench("--workload", "setup-large", "--seed", "3", "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}


def test_fails_without_the_package_sources():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = _bench("--workload", "creep-verify", "--seed", "0", "--seconds", "1", "--trace", "0",
                  cwd=bare, env=env)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
