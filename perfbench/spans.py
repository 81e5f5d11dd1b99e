"""Span tracing of the viscofem modules, from outside the package.

The tracer replaces public functions at the module attribute their caller
looks up (for example ``viscofem.stepper.solve_spd``, which is what
``Simulation._solve`` reads at call time) with a wrapper that records one
span per call: name, start, end, parent span and op id. Spans stay in
memory until ``write_jsonl`` is called at the end of a run. Nothing under
``src/`` is modified; ``remove`` puts every original attribute back.

A target that no longer exists (a later commit may delete ``solve_spd``)
is skipped with a note, and a metric is dropped from the report, instead
of failing the run, when a span it needs has no target left.
"""

from __future__ import annotations

import importlib
import json
import statistics
from time import perf_counter

# (module, attribute path, span name). The span name's first part is the
# layer; metrics below are computed from span names.
TARGETS = (
    ("viscofem.stepper", "build_unit_square", "mesh.build"),
    ("viscofem.stepper", "load_mesh", "mesh.build"),
    ("viscofem.stepper", "classify_boundary", "mesh.build"),
    ("viscofem.stepper", "MeshGeometry", "mesh.geometry"),
    ("viscofem.diagnostics", "MeshGeometry", "mesh.geometry"),
    ("viscofem.outputs", "MeshGeometry", "mesh.geometry"),
    ("viscofem.stepper", "assemble_stiffness", "assembly.stiffness"),
    ("viscofem.stepper", "build_dirichlet", "assembly.dirichlet"),
    ("viscofem.stepper", "apply_dirichlet", "assembly.dirichlet"),
    ("viscofem.stepper", "tensor_load", "assembly.rhs"),
    ("viscofem.stepper", "load_vector", "assembly.rhs"),
    ("viscofem.assembly", "tensor_load", "assembly.rhs"),
    ("viscofem.assembly", "load_vector", "assembly.rhs"),
    ("viscofem.diagnostics", "load_vector", "assembly.rhs"),
    ("viscofem.stepper", "solve_spd", "solver.solve"),
    ("viscofem.stepper", "strain_field", "fields.strain"),
    ("viscofem.diagnostics", "strain_field", "fields.strain"),
    ("viscofem.outputs", "strain_field", "fields.strain"),
    ("viscofem.stepper", "apply_C", "tensors.apply"),
    ("viscofem.stepper", "apply_relax_inv", "tensors.apply"),
    ("viscofem.assembly", "apply_C", "tensors.apply"),
    ("viscofem.assembly", "apply_relax_inv", "tensors.apply"),
    ("viscofem.diagnostics", "apply_C", "tensors.apply"),
    ("viscofem.diagnostics", "stress", "tensors.apply"),
    ("viscofem.outputs", "stress", "tensors.apply"),
    ("viscofem.diagnostics", "energy", "diagnostics.step_check"),
    ("viscofem.diagnostics", "scheme_residual", "diagnostics.step_check"),
    ("viscofem.diagnostics", "energy_identity_residual", "diagnostics.step_check"),
    ("viscofem.diagnostics", "stress_components_linf", "diagnostics.step_check"),
    ("viscofem.diagnostics", "gradient_flow_check", "diagnostics.gradient_check"),
    ("viscofem.stepper", "equilibrium_solve", "diagnostics.equilibrium_solve"),
    ("viscofem.stepper", "Simulation.step", "stepper.step"),
    ("viscofem.outputs", "write_vtk", "outputs.vtk"),
    ("viscofem.outputs", "write_energy_csv", "outputs.csv"),
    ("viscofem.outputs", "write_stress_csv", "outputs.csv"),
    ("viscofem.outputs", "write_summary", "outputs.csv"),
)

# span names each per-layer metric is computed from
METRIC_SOURCES = {
    "config.parse_s": ("phase.config",),
    "mesh.build_s": ("mesh.build",),
    "mesh.geometry_s": ("mesh.geometry",),
    "assembly.stiffness_s": ("assembly.stiffness",),
    "assembly.stiffness_calls": ("assembly.stiffness",),
    "assembly.dirichlet_s": ("assembly.dirichlet",),
    "assembly.rhs_s": ("assembly.rhs",),
    "assembly.rhs_calls": ("assembly.rhs",),
    "solver.solve_s": ("solver.solve",),
    "solver.calls": ("solver.solve",),
    "solver.iterations": ("solver.solve",),
    "solver.iterations_per_solve_p50": ("solver.solve",),
    "solver.residual_max": ("solver.solve",),
    "fields.strain_s": ("fields.strain",),
    "fields.strain_calls": ("fields.strain",),
    "fields.strain_calls_per_step": ("fields.strain", "stepper.step"),
    "tensors.apply_s": ("tensors.apply",),
    "tensors.apply_calls": ("tensors.apply",),
    "diagnostics.step_checks_s": ("diagnostics.step_check",),
    "diagnostics.equilibrium_solves": ("diagnostics.equilibrium_solve",),
    "diagnostics.gradient_check_s": ("diagnostics.gradient_check",),
    "stepper.step_ms_p50": ("stepper.step",),
    "stepper.step_ms_p90": ("stepper.step",),
    "stepper.step_samples": ("stepper.step",),
    "stepper.self_s": ("stepper.step",),
    "outputs.vtk_s": ("outputs.vtk",),
    "outputs.csv_s": ("outputs.csv",),
}


def _solver_extra(args, kwargs, result):
    """Iterations and relative residual of one solve_spd call."""
    import numpy as np

    b = args[1] if len(args) > 1 else kwargs["b"]
    report = result[1]
    norm_b = float(np.linalg.norm(b))
    rel = report.residual / norm_b if norm_b > 0.0 else 0.0
    return {"iterations": int(report.iterations), "residual": float(rel)}


def _extra(extra_of, args, kwargs, result):
    """Counts read off a call; None when the callee's signature has moved on."""
    if extra_of is None or result is None:
        return None
    try:
        return extra_of(args, kwargs, result)
    except (AttributeError, IndexError, KeyError, TypeError):
        return None


class Tracer:
    """Records spans; one instance per benchmark run."""

    def __init__(self):
        # span: [name, start, end, parent index or -1, op id, extra dict or None]
        self.spans: list[list] = []
        self.op_id = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, parent, self.op_id, None])
        self._stack.append(index)
        return index

    def end(self, index: int, extra=None) -> None:
        span = self.spans[index]
        span[2] = perf_counter()
        span[5] = extra
        self._stack.pop()

    def wrap(self, fn, name: str):
        extra_of = _solver_extra if name == "solver.solve" else None

        def traced(*args, **kwargs):
            index = self.begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.end(index, _extra(extra_of, args, kwargs, result))

        traced.__wrapped__ = fn
        return traced

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        """Wrap every target that exists; note the ones that do not."""
        self.missing = []
        for module_name, path, name in TARGETS:
            try:
                owner = importlib.import_module(module_name)
            except ModuleNotFoundError:
                owner = None
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None) if owner is not None else None
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def installed_names(self) -> set[str]:
        present = {f"{m}.{p}" for m, p, _ in TARGETS} - set(self.missing)
        return {name for m, p, name in TARGETS if f"{m}.{p}" in present}

    # -- accounting -----------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def write_jsonl(self, path, run_info: dict) -> None:
        own = self.self_times()
        with open(path, "w") as f:
            f.write(json.dumps({"run": run_info}) + "\n")
            for i, (name, start, end, parent, op, extra) in enumerate(self.spans):
                record = {"id": i, "name": name, "start": start, "end": end,
                          "parent": parent, "op": op, "self": own[i]}
                if extra:
                    record.update(extra)
                f.write(json.dumps(record) + "\n")


def _outermost(spans, indices, name):
    """Spans called name with no ancestor of the same name."""
    out = []
    for i in indices:
        if spans[i][0] != name:
            continue
        p = spans[i][3]
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            out.append(i)
    return out


def _under(spans, i, name):
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][3]
    return False


def _percentile(values, q):
    """Nearest-rank percentile; q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_metrics(tracer: Tracer, op_id: int) -> dict[str, float]:
    """Per-layer metrics of one traced op, keyed as in METRIC_SOURCES."""
    spans = tracer.spans
    own = tracer.self_times()
    ops = [i for i, s in enumerate(spans) if s[4] == op_id]

    def busy(name, within=None):
        idx = _outermost(spans, ops, name)
        if within is not None:
            idx = [i for i in idx if _under(spans, i, within)]
        return sum(spans[i][2] - spans[i][1] for i in idx)

    def calls(name):
        return sum(1 for i in ops if spans[i][0] == name)

    m: dict[str, float] = {}
    m["config.parse_s"] = busy("phase.config")
    m["mesh.build_s"] = busy("mesh.build")
    m["mesh.geometry_s"] = busy("mesh.geometry")
    m["assembly.stiffness_s"] = busy("assembly.stiffness")
    m["assembly.stiffness_calls"] = calls("assembly.stiffness")
    m["assembly.dirichlet_s"] = busy("assembly.dirichlet")
    m["assembly.rhs_s"] = busy("assembly.rhs")
    m["assembly.rhs_calls"] = calls("assembly.rhs")

    solves = [spans[i][5] for i in ops if spans[i][0] == "solver.solve" and spans[i][5]]
    m["solver.solve_s"] = busy("solver.solve")
    m["solver.calls"] = calls("solver.solve")
    m["solver.iterations"] = sum(s["iterations"] for s in solves)
    m["solver.iterations_per_solve_p50"] = (
        statistics.median(s["iterations"] for s in solves) if solves else 0)
    m["solver.residual_max"] = max((s["residual"] for s in solves), default=0.0)

    m["fields.strain_s"] = busy("fields.strain")
    m["fields.strain_calls"] = calls("fields.strain")
    # strain calls of the run phase, attributed to the step last started;
    # the loop's per-level stress norm lands on the step that produced it
    per_step: list[int] = []
    for i in ops:  # spans are stored in start order
        if not _under(spans, i, "phase.run"):
            continue
        if spans[i][0] == "stepper.step":
            per_step.append(0)
        elif spans[i][0] == "fields.strain" and per_step:
            per_step[-1] += 1
    m["fields.strain_calls_per_step"] = statistics.median(per_step) if per_step else 0

    m["tensors.apply_s"] = busy("tensors.apply")
    m["tensors.apply_calls"] = calls("tensors.apply")
    m["diagnostics.step_checks_s"] = busy("diagnostics.step_check", within="phase.run")
    m["diagnostics.equilibrium_solves"] = calls("diagnostics.equilibrium_solve")
    m["diagnostics.gradient_check_s"] = busy("diagnostics.gradient_check")

    steps = _outermost(spans, ops, "stepper.step")
    step_ms = [1e3 * (spans[i][2] - spans[i][1]) for i in steps]
    m["stepper.step_ms_p50"] = statistics.median(step_ms) if step_ms else 0.0
    m["stepper.step_ms_p90"] = _percentile(step_ms, 90) if step_ms else 0.0
    m["stepper.step_samples"] = len(step_ms)
    m["stepper.self_s"] = sum(own[i] for i in steps)

    m["outputs.vtk_s"] = busy("outputs.vtk")
    m["outputs.csv_s"] = busy("outputs.csv")

    present = tracer.installed_names() | {"phase.config"}
    for metric, sources in METRIC_SOURCES.items():
        if not all(s in present for s in sources):
            del m[metric]
    return m


def layer_self_times(tracer: Tracer, op_id: int) -> dict[str, float]:
    """Self time summed by span name for one op (phases included)."""
    own = tracer.self_times()
    totals: dict[str, float] = {}
    for i, s in enumerate(tracer.spans):
        if s[4] == op_id:
            totals[s[0]] = totals.get(s[0], 0.0) + own[i]
    return totals
