"""Run outputs: time-series CSVs, VTK snapshots, and a text summary.

Every file is deterministic for a given run (no timestamps, fixed float
formatting, raw bytes for binary data), so repeated serial runs are
byte-identical. energy.csv and stress.csv carry one row per time level
including k = 0; VTK files are written only at the snapshot cadence.

Each block of CSV rows (split every 256 rows) is formatted by one % over
the row format repeated once per row, which gives the same bytes as
formatting the rows one by one.

The VTK files are legacy binary VTK 2.0 unstructured grids: the undeformed
mesh, the displacement as point vectors (warp by u in a viewer to see the
deformed shape), and the internal tensor and stress fields as six cell
scalars (xx, yy, xy each). Each section is its text header line, then its
values as big-endian bytes (>f8 for points and fields, exact doubles; >i4
for cells and cell types), then a newline.
"""

from __future__ import annotations

import os

import numpy as np

from .fields import strain_field
from .stepper import RunResult, SimulationState
from .tensors import stress


def write_outputs(result: RunResult, outdir) -> list[str]:
    """Write all output files; returns the paths written."""
    os.makedirs(outdir, exist_ok=True)
    paths = [
        write_energy_csv(result, os.path.join(outdir, "energy.csv")),
        write_stress_csv(result, os.path.join(outdir, "stress.csv")),
    ]
    for state in result.snapshots:
        name = os.path.join(outdir, f"state_{state.k:06d}.vtk")
        paths.append(write_vtk(result, state, name))
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


def write_vtk(result: RunResult, state: SimulationState, path) -> str:
    """One binary VTK snapshot of state."""
    mesh = result.mesh
    sigma = stress(result.config.material, strain_field(result.geom, state.u), state.phi).sigma
    n, m = mesh.n_nodes, mesh.n_triangles
    with open(path, "wb") as f:
        f.write(f"# vtk DataFile Version 2.0\nviscofem state k={state.k} t={state.t:.6f}\n"
                "BINARY\nDATASET UNSTRUCTURED_GRID\n".encode())
        _write_block(f, f"POINTS {n} double", np.column_stack([mesh.nodes, np.zeros(n)]), ">f8")
        _write_block(f, f"CELLS {m} {4 * m}", np.column_stack([np.full(m, 3), mesh.triangles]), ">i4")
        _write_block(f, f"CELL_TYPES {m}", np.full(m, 5), ">i4")
        _write_block(f, f"POINT_DATA {n}\nVECTORS u double",
                     np.column_stack([state.u, np.zeros(n)]), ">f8")
        f.write(f"CELL_DATA {m}\n".encode())
        names = ("phi_xx", "phi_yy", "phi_xy", "sigma_xx", "sigma_yy", "sigma_xy")
        for name, values in zip(names, np.column_stack([state.phi, sigma]).T):
            _write_block(f, f"SCALARS {name} double 1\nLOOKUP_TABLE default", values, ">f8")
    return path


def _write_block(f, header: str, values: np.ndarray, dtype: str) -> None:
    """The header text, the values as raw bytes of dtype, and a newline."""
    f.write(f"{header}\n".encode() + values.astype(dtype).tobytes() + b"\n")


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
