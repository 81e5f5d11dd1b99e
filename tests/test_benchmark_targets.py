"""The benchmark's tracer still reaches the package.

perfbench/spans.py times each layer by wrapping module attributes of the
package (its TARGETS); a per-layer metric of BENCHMARK.json is reported
only while every span it is computed from has a target that resolves. A
refactor that renames or inlines a wrapped function drops the metric
silently, so this test resolves the targets without running the benchmark.
It reads perfbench/spans.py, perfbench/run.py and BENCHMARK.json and
changes none of them.
"""

import importlib
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
