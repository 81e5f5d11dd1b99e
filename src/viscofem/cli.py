"""Command line entry point.

    viscofem solve --config PATH [--alpha X] [--tau X] [--out DIR] [--verify]
    viscofem preset example1|example2 [--alpha X] [--out FILE]
    viscofem check-config PATH

solve runs a configuration to completion and writes the output files.
--verify re-checks the structural guarantees after the run (energy
monotonicity, per-step energy identity, per-element update residual, and
gradient-flow spot checks with fresh constrained solves); a verification
failure makes the exit code nonzero, as does any aborted run.

preset prints one of the two built-in experiment configurations (to stdout
by default) so it can be edited and fed back to solve. check-config validates a
configuration, its mesh file and boundary as solve does, without running it.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import diagnostics, outputs
from .config import ConfigError, config_text, parse_config, preset_config
from .mesh import MeshFormatError
from .stepper import Simulation, SolverError, default_sample_steps, prepare_mesh


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="viscofem",
        description="P1/P0 finite element solver for a viscoelastic model "
                    "with an energy-decay time discretization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run a configuration and write outputs")
    p_solve.add_argument("--config", required=True, help="configuration file")
    p_solve.add_argument("--alpha", type=float, default=None, help="override material alpha")
    p_solve.add_argument("--tau", type=float, default=None, help="override time increment")
    p_solve.add_argument("--out", default=None, help="override output directory")
    p_solve.add_argument("--verify", action="store_true",
                         help="check energy decay, identities and gradient-flow structure")

    p_preset = sub.add_parser("preset", help="print a built-in experiment configuration")
    p_preset.add_argument("name", choices=("example1", "example2"))
    p_preset.add_argument("--alpha", type=float, default=1.0)
    p_preset.add_argument("--out", default=None, help="write to a file instead of stdout")

    p_check = sub.add_parser("check-config", help="validate a configuration file")
    p_check.add_argument("path")

    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "preset":
            return _cmd_preset(args)
        return _cmd_check(args)
    except (ConfigError, MeshFormatError, SolverError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _cmd_solve(args) -> int:
    cfg = parse_config(args.config)
    if args.alpha is not None:
        cfg = replace(cfg, material=replace(cfg.material, alpha=args.alpha))
    if args.tau is not None:
        cfg = replace(cfg, tau=args.tau)
    if args.out is not None:
        cfg = replace(cfg, outdir=args.out)

    sample = default_sample_steps(cfg.n_steps) if args.verify else ()
    sim = Simulation(cfg)
    os.makedirs(cfg.outdir, exist_ok=True)  # before the run, so a bad --out costs no steps
    result = sim.run(sample_steps=sample)
    paths = outputs.write_outputs(result, cfg.outdir)

    print(f"ran {cfg.n_steps} steps of tau={cfg.tau!r} "
          f"(alpha={cfg.material.alpha!r}, {result.mesh.n_triangles} elements)")
    print(f"energy: {result.energy[0]:.6e} -> {result.energy[-1]:.6e}")
    print(f"final sigma11 L-inf: {result.sigma_linf[-1, 0]:.6e}")
    print(f"wrote {len(paths)} files to {cfg.outdir}")

    if args.verify:
        report = diagnostics.verify_result(result)
        print(f"verify: monotone={_flag(report.monotone_ok)} "
              f"identity={_flag(report.identity_ok)} (max {report.max_identity:.3e}) "
              f"update={_flag(report.scheme_ok)} (max {report.max_scheme:.3e}) "
              f"gradient-flow={_flag(report.gradient_ok)} (max {report.max_gradient:.3e})")
        for message in report.messages:
            print(f"verify: {message}", file=sys.stderr)
        if not report.ok:
            return 1
    return 0


def _flag(ok: bool) -> str:
    return "ok" if ok else "FAIL"


def _cmd_preset(args) -> int:
    text = config_text(preset_config(args.name, alpha=args.alpha))
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as f:
            f.write(text)
        print(f"wrote {args.out}")
    return 0


def _cmd_check(args) -> int:
    cfg = parse_config(args.path)
    if cfg.mesh.path is not None:
        prepare_mesh(cfg)
    print(f"{args.path}: ok ({cfg.n_steps} steps, alpha={cfg.material.alpha!r}, "
          f"gamma0={cfg.gamma0})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
