"""The benchmark's workloads and one operation on them.

One operation runs a workload the way ``viscofem solve [--verify]`` does,
through the library: ``preset_config`` plus overrides (round-tripped
through the config text format, as ``solve --config`` reads it), then
``Simulation(cfg)``, ``.run(sample_steps)``, ``verify_result`` and
``write_outputs``. Each phase is timed; the operation then checks its
outputs against the structure gates and the reference values below.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import statistics
from dataclasses import dataclass, replace
from time import perf_counter

from viscofem import Simulation, preset_config, verify_result, write_outputs
from viscofem.config import config_text, parse_config_text
from viscofem.stepper import default_sample_steps

# Final energy and final sigma11 L-inf may differ from the references by
# these relative amounts. A direct solve meeting the solver's 1e-12
# residual gate differed from Jacobi-PCG by at most 1e-14 (energy) and
# 1.5e-10 (sigma11) on all three workloads.
ENERGY_RTOL = 1e-10
SIGMA_RTOL = 1e-8


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    alpha: float
    n: int
    tau: float
    t_end: float
    cadence: int
    full_verify: bool     # probes as `solve --verify`; else one direction at the last step
    energy_ref: float     # final energy at the reference commit
    sigma11_ref: float    # final sigma11 L-inf at the reference commit


# why each workload is here: README.md and BENCHMARK.json
WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="creep-verify",
            preset="example1", alpha=1.0, n=40, tau=0.01, t_end=1.0, cadence=10,
            full_verify=True, energy_ref=-0.205670333048736, sigma11_ref=0.1002525740780155,
        ),
        Workload(
            name="relax-long",
            preset="example2", alpha=2.0, n=16, tau=0.002, t_end=10.0, cadence=10,
            full_verify=False, energy_ref=0.5750814284370088, sigma11_ref=1.3483713211189692,
        ),
        Workload(
            name="setup-large",
            preset="example2", alpha=1.0, n=160, tau=0.01, t_end=0.02, cadence=0,
            full_verify=False, energy_ref=1.2340086130777828, sigma11_ref=6.096350000759234,
        ),
    )
}

# set-up, verify and output are repeated until they have run this long
# (set-up at least three times), and the median call is reported: one call
# of a few milliseconds is mostly noise
_MIN_PHASE_S = 1.0
_SETUP_CALLS = 3


@dataclass
class OpResult:
    times: dict            # setup_s, run_s, verify_s, output_s and their total_s
    failures: list         # gate messages; empty when the operation passed
    digest: str            # sha256 over the written output files
    files: int
    bytes: int


def make_config(w: Workload, outdir: str):
    cfg = preset_config(w.preset, alpha=w.alpha)
    cfg = replace(cfg, mesh=replace(cfg.mesh, n=w.n), tau=w.tau, t_end=w.t_end,
                  cadence=w.cadence, outdir=outdir)
    return parse_config_text(config_text(cfg), origin=f"<{w.name}>")


def _timed(fn, min_calls: int, min_total: float, prepare=None):
    """Call fn until both limits are met; the last result and the median time.

    prepare, if given, runs untimed before each call.
    """
    times = []
    result = None
    while len(times) < min_calls or sum(times) < min_total:
        result = None  # release the previous result before building the next
        if prepare is not None:
            prepare()
        t0 = perf_counter()
        result = fn()
        times.append(perf_counter() - t0)
    return result, statistics.median(times)


def run_op(w: Workload, seed: int, outdir: str, tracer=None) -> OpResult:
    """One operation. With a tracer every phase runs once, inside a span."""
    def fresh_outdir():
        shutil.rmtree(outdir, ignore_errors=True)

    def phase(name, fn, min_calls=1, min_total=0.0, prepare=None):
        if tracer is None:
            return _timed(fn, min_calls, min_total, prepare)
        index = tracer.begin("phase." + name)
        try:
            return _timed(fn, 1, 0.0, prepare)
        finally:
            tracer.end(index)

    cfg, _ = phase("config", lambda: make_config(w, outdir))
    if w.full_verify:
        sample, directions = default_sample_steps(cfg.n_steps), 10
    else:
        sample, directions = (cfg.n_steps,), 1
    sim, setup_s = phase("setup", lambda: Simulation(cfg), _SETUP_CALLS, _MIN_PHASE_S)
    result, run_s = phase("run", lambda: sim.run(sample_steps=sample))
    del sim
    report, verify_s = phase(
        "verify", lambda: verify_result(result, directions=directions, seed=seed), 1, _MIN_PHASE_S)
    paths, output_s = phase(
        "output", lambda: write_outputs(result, outdir), 1, _MIN_PHASE_S, prepare=fresh_outdir)

    times = {"setup_s": setup_s, "run_s": run_s, "verify_s": verify_s, "output_s": output_s}
    times["total_s"] = sum(times.values())
    digest, n_bytes = _digest(outdir, paths)
    failures = gate(w, result, report)
    shutil.rmtree(outdir)
    return OpResult(times, failures, digest, len(paths), n_bytes)


def gate(w: Workload, result, report) -> list[str]:
    """Correctness gate of one operation; returns the failed checks."""
    failures = [f"verify: {message}" for message in report.messages]
    if not report.ok and not failures:
        failures.append("verify: report not ok")
    if not result.sampled_pairs:
        failures.append("verify: the run sampled no gradient-flow pairs")
    for what, value, ref, rtol in (
        ("final energy", float(result.energy[-1]), w.energy_ref, ENERGY_RTOL),
        ("final sigma11 L-inf", float(result.sigma_linf[-1, 0]), w.sigma11_ref, SIGMA_RTOL),
    ):
        if not abs(value - ref) <= rtol * abs(ref):
            failures.append(f"{what} {value!r} differs from reference {ref!r} "
                            f"by more than {rtol:.0e} relative")
    return failures


def _digest(outdir: str, paths) -> tuple[str, int]:
    h = hashlib.sha256()
    total = 0
    for path in sorted(paths):
        with open(path, "rb") as f:
            data = f.read()
        h.update(os.path.relpath(path, outdir).encode() + b"\0")
        h.update(data)
        total += len(data)
    return h.hexdigest(), total
