"""viscofem benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. Operations (see workloads.py) repeat in one process until
``--seconds`` have passed. With ``--trace 0`` every operation is untraced
and the end-to-end metrics are reported; with ``--trace 1`` traced and
untraced operations alternate, the per-layer metrics come from the traced
ones and ``trace.overhead_s`` is traced minus untraced ``total_s``.
Scratch files and the span log go to ``.bench_runs/`` in the checkout.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. An operation fails when
it raises, when its correctness gate fails, or when its output files or
traced counts differ from the run's first operation.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / ".bench_runs"
BLAS_THREADS = "1"

# counts that must repeat exactly between traced operations of one run
REPEATED_COUNTS = ("solver.iterations", "fields.strain_calls", "assembly.stiffness_calls",
                   "diagnostics.equilibrium_solves")


def _spec(kind: str) -> dict[str, str]:
    """Metric name -> unit, from BENCHMARK.json's end_to_end or per_layer list."""
    with open(ROOT / "BENCHMARK.json") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def _import_package():
    """Import viscofem from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    if not (src / "viscofem" / "__init__.py").is_file():
        sys.exit(f"error: no viscofem sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))


def conditions(args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": os.cpu_count(), "blas": blas.get("name", "unknown"),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def _summary(name, values, unit):
    values = sorted(values)
    return (f"  {name:34s} {statistics.median(values):12.6g} {unit:6s} "
            f"(median of {len(values)}, min {values[0]:.6g}, max {values[-1]:.6g})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # one BLAS thread: the default two made run times bimodal on 2 cores
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    _import_package()
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}, "
                 f"expected one of {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    info = conditions(args)
    print("conditions: " + json.dumps(info))

    RUNS.mkdir(exist_ok=True)
    outdir = str(RUNS / f"out-{w.name}")
    tracer = spans.Tracer() if args.trace else None
    untraced, traced = [], []   # OpResult; (op id, OpResult, layer metrics)
    attempted = failed = 0
    first_digest = first_counts = None

    deadline = perf_counter() + args.seconds
    while perf_counter() < deadline or attempted < (2 if args.trace else 1):
        use_trace = tracer is not None and attempted % 2 == 0
        attempted += 1
        try:
            if use_trace:
                tracer.op_id = attempted
                tracer.install()
                try:
                    op = workloads.run_op(w, args.seed, outdir, tracer)
                finally:
                    tracer.remove()
                layer = spans.layer_metrics(tracer, attempted)
            else:
                op = workloads.run_op(w, args.seed, outdir)
        except Exception:  # an operation that raises is counted, not fatal
            failed += 1
            print(f"op {attempted}: raised", file=sys.stderr)
            traceback.print_exc()
            continue

        failures = list(op.failures)
        if first_digest is None:
            first_digest = op.digest
        elif op.digest != first_digest:
            failures.append("output files differ from the run's first operation")
        if use_trace:
            counts = {k: layer.get(k) for k in REPEATED_COUNTS}
            if first_counts is None:
                first_counts = counts
            elif counts != first_counts:
                failures.append(f"traced counts {counts} differ from {first_counts}")
        if failures:
            failed += 1
            for message in failures:
                print(f"op {attempted}: {message}", file=sys.stderr)
            continue
        if use_trace:
            traced.append((attempted, op, layer))
        else:
            untraced.append(op)

    if not untraced or (tracer is not None and not traced):
        print("error: no operation passed; nothing to report", file=sys.stderr)
        return 1

    print(f"workload {w.name}: {attempted} operations, {failed} failed")
    if tracer is None:
        values = {name: [op.times[name] for op in untraced]
                  for name in ("setup_s", "run_s", "verify_s", "output_s", "total_s")}
        values["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
        spec = _spec("end_to_end")
        print("end-to-end (untraced):")
    else:
        for note in tracer.missing:
            print(f"note: {note} no longer exists; metrics that need it are dropped")
        per_op = [layer for _, _, layer in traced]
        values = {name: [layer[name] for layer in per_op] for name in per_op[0]}
        values["outputs.files"] = [op.files for _, op, _ in traced]
        values["outputs.bytes"] = [op.bytes for _, op, _ in traced]
        values["trace.overhead_s"] = [
            statistics.median(op.times["total_s"] for _, op, _ in traced)
            - statistics.median(op.times["total_s"] for op in untraced)]
        spec = _spec("per_layer")
        print("per-layer (traced):")

    metrics = {}
    for name, vals in values.items():
        unit = spec.get(name, "")
        print(_summary(name, vals, unit))
        if name in spec:
            metrics[name] = {"value": statistics.median(vals), "unit": unit}
    for name in spec.keys() - metrics.keys():
        print(f"note: metric {name} was not measured and is left out")
    if tracer is None:
        print(f"  {'fail_ratio':34s} {failed / attempted:12.6g} {'1':6s} "
              f"({failed} of {attempted} operations)")
    else:
        print("self time by span name, last traced operation:")
        selfs = spans.layer_self_times(tracer, traced[-1][0])
        for name, seconds in sorted(selfs.items(), key=lambda kv: -kv[1]):
            print(f"  {name:34s} {seconds:12.6g} s")
        tracer.write_jsonl(RUNS / f"spans-{w.name}.jsonl", info)

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
