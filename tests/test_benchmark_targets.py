"""The benchmark's tracer still reaches the package, and its workloads
still pass its correctness gate.

perfbench/spans.py times each layer by wrapping module attributes of the
package (its TARGETS); a per-layer metric of BENCHMARK.json is reported
only while every span it is computed from has a target that resolves. A
refactor that renames or inlines a wrapped function drops the metric
silently, so this test resolves the targets without running the benchmark.
A lost target whose span another target still covers drops no metric but
stops timing that call, so a second test allows only the targets that are
dead already to fail to resolve.

perfbench/workloads.py gates every operation on the verify report and on
the final energy and sigma11 against its reference values (1e-10 and 1e-8
relative). Each workload is run here once, untimed, through that gate, so
a drift from the references shows in the tests.

These tests read perfbench/spans.py, perfbench/workloads.py,
perfbench/run.py and BENCHMARK.json and change none of them.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from viscofem import Simulation, verify_result
from viscofem.stepper import default_sample_steps

ROOT = Path(__file__).resolve().parent.parent


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def load_spans():
    return load_perfbench("spans")


WORKLOADS = load_perfbench("workloads")


def resolves(module_name, path) -> bool:
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part, None)
        if owner is None:
            return False
    return True


def test_every_per_layer_metric_has_a_live_target():
    spans = load_spans()
    per_layer = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    run_py = (ROOT / "perfbench" / "run.py").read_text()
    live = {name for module, path, name in spans.TARGETS if resolves(module, path)}
    for metric in per_layer:
        if metric not in spans.METRIC_SOURCES:
            # counted by run.py itself, from the written files and the op times
            assert f'values["{metric}"]' in run_py, metric
            continue
        for source in spans.METRIC_SOURCES[metric]:
            if not source.startswith("phase."):  # phases are spans of the harness
                assert source in live, f"{metric}: no target of span {source} resolves"


# targets that name functions the package no longer has or imports there;
# every other target is a call the package makes and the tracer times
DEAD_TARGETS = {
    ("viscofem.stepper", "apply_dirichlet"),
    ("viscofem.stepper", "apply_C"),
    ("viscofem.stepper", "apply_relax_inv"),
    ("viscofem.assembly", "apply_C"),
    ("viscofem.assembly", "apply_relax_inv"),
    ("viscofem.diagnostics", "apply_C"),
    ("viscofem.diagnostics", "load_vector"),
    ("viscofem.diagnostics", "strain_field"),
    ("viscofem.diagnostics", "stress"),
    ("viscofem.outputs", "MeshGeometry"),
}


def test_no_live_target_is_lost():
    dead = {(module, path) for module, path, _ in load_spans().TARGETS
            if not resolves(module, path)}
    assert dead <= DEAD_TARGETS, sorted(dead - DEAD_TARGETS)


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_workload_passes_the_benchmark_gate(tmp_path, name):
    w = WORKLOADS.WORKLOADS[name]
    cfg = WORKLOADS.make_config(w, str(tmp_path))
    # the sample steps and verify directions of workloads.run_op
    if w.full_verify:
        sample, directions = default_sample_steps(cfg.n_steps), 10
    else:
        sample, directions = (cfg.n_steps,), 1
    result = Simulation(cfg).run(sample_steps=sample)
    report = verify_result(result, directions=directions, seed=7)
    assert WORKLOADS.gate(w, result, report) == []
