"""Run outputs: time-series CSVs, VTK snapshots, and a text summary.

Every file is deterministic for a given run (no timestamps, fixed float
formatting), so repeated serial runs are byte-identical. energy.csv and
stress.csv carry one row per time level including k = 0; VTK files are
written only at the snapshot cadence.

Each block of rows (a CSV body, a VTK point, cell or scalar section, split
every 256 rows) is formatted by one % over the row format repeated once
per row, which gives the same bytes as formatting the rows one by one.

The VTK files are legacy ASCII 2.0 unstructured grids: the undeformed
mesh, the displacement as point vectors (warp by u in a viewer to see the
deformed shape), and the internal tensor and stress fields as six cell
scalars (xx, yy, xy each). write_outputs formats the mesh sections once
and writes the same text into every snapshot.
"""

from __future__ import annotations

import io
import os

import numpy as np

from .fields import strain_field
from .mesh import Mesh
from .stepper import RunResult, SimulationState
from .tensors import stress


def write_outputs(result: RunResult, outdir) -> list[str]:
    """Write all output files; returns the paths written."""
    os.makedirs(outdir, exist_ok=True)
    paths = [
        write_energy_csv(result, os.path.join(outdir, "energy.csv")),
        write_stress_csv(result, os.path.join(outdir, "stress.csv")),
    ]
    mesh_text = _mesh_text(result.mesh)
    for state in result.snapshots:
        name = os.path.join(outdir, f"state_{state.k:06d}.vtk")
        paths.append(write_vtk(result, state, name, mesh_text))
    paths.append(write_summary(result, os.path.join(outdir, "summary.txt")))
    return paths


_BLOCK_ROWS = 256  # rows per % call; it holds ~70 transient bytes per value


def _write_rows(f, fmt: str, *columns) -> None:
    """Write one fmt line per row of the columns, one % call per block of rows."""
    table = np.column_stack(columns)
    for block in np.split(table, range(_BLOCK_ROWS, len(table), _BLOCK_ROWS)):
        f.write((fmt * len(block)) % tuple(block.ravel().tolist()))


def write_energy_csv(result: RunResult, path) -> str:
    with open(path, "w") as f:
        f.write("t,E,elastic,relax,work,identity_residual\n")
        _write_rows(f, "%.12e,%.12e,%.12e,%.12e,%.12e,%.12e\n", result.times, result.energy,
                    result.elastic, result.relax, result.work, result.identity_residual)
    return path


def write_stress_csv(result: RunResult, path) -> str:
    with open(path, "w") as f:
        f.write("t,sigma11_linf,sigma22_linf,sigma12_linf\n")
        _write_rows(f, "%.12e,%.12e,%.12e,%.12e\n", result.times, result.sigma_linf)
    return path


def _mesh_text(mesh: Mesh) -> str:
    """The POINTS, CELLS and CELL_TYPES sections of a VTK file of mesh."""
    n, m = mesh.n_nodes, mesh.n_triangles
    f = io.StringIO()
    f.write(f"POINTS {n} double\n")
    _write_rows(f, "%.12e %.12e 0.0\n", mesh.nodes)
    f.write(f"CELLS {m} {4 * m}\n")
    _write_rows(f, "3 %d %d %d\n", mesh.triangles)
    f.write(f"CELL_TYPES {m}\n")
    f.write("5\n" * m)
    return f.getvalue()


def write_vtk(result: RunResult, state: SimulationState, path, mesh_text: str | None = None) -> str:
    """One VTK snapshot; mesh_text is _mesh_text(result.mesh), formatted here if not given."""
    mesh = result.mesh
    sigma = stress(result.config.material, strain_field(result.geom, state.u), state.phi).sigma
    n, m = mesh.n_nodes, mesh.n_triangles
    with open(path, "w") as f:
        f.write("# vtk DataFile Version 2.0\n")
        f.write(f"viscofem state k={state.k} t={state.t:.6f}\n")
        f.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
        f.write(_mesh_text(mesh) if mesh_text is None else mesh_text)
        f.write(f"POINT_DATA {n}\n")
        f.write("VECTORS u double\n")
        _write_rows(f, "%.12e %.12e 0.0\n", state.u)
        f.write(f"CELL_DATA {m}\n")
        names = ("phi_xx", "phi_yy", "phi_xy", "sigma_xx", "sigma_yy", "sigma_xy")
        for name, values in zip(names, np.column_stack([state.phi, sigma]).T):
            f.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            _write_rows(f, "%.12e\n", values)
    return path


def write_summary(result: RunResult, path) -> str:
    cfg = result.config
    m = cfg.material
    n_steps = len(result.times) - 1
    if cfg.mesh.path is not None:
        mesh_desc = f"file {cfg.mesh.path}"
    else:
        mesh_desc = f"unit square n={cfg.mesh.n} pattern={cfg.mesh.pattern}"
    lines = [
        "viscofem run summary",
        f"material: lambda={m.lam!r} mu={m.mu!r} eta={m.eta!r} alpha={m.alpha!r}",
        f"time: tau={cfg.tau!r} T={cfg.t_end!r} N_T={n_steps}",
        f"mesh: {mesh_desc} ({result.mesh.n_nodes} nodes, {result.mesh.n_triangles} triangles)",
        f"dirichlet boundary: {cfg.gamma0}",
        f"final energy: {result.energy[-1]:.12e}",
        f"final sigma11 L-inf: {result.sigma_linf[-1, 0]:.12e}",
        f"max energy-identity residual: {result.identity_residual.max():.3e}",
        f"max tensor-update residual: {result.scheme_residual.max():.3e}",
        f"max solve backward error: {result.backward_error.max():.3e}",
        f"snapshots written: {len(result.snapshots)}",
        "",
    ]
    with open(path, "w") as f:
        f.write("\n".join(lines))
    return path
