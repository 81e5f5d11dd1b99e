"""Assembly of the P1/P0 bilinear forms and load functionals.

Every volume integrand here is piecewise constant (P1 strains against P0
tensors), so one-point centroid quadrature is exact and an element matrix is
just area * (T e_i) : e_j for the six local basis strains. The load uses the
two exact low-order rules for the data admitted by this solver:

    body force f (constant):     each vertex of a triangle gets area/3 * f
    traction q (constant):       each endpoint of a GAMMA1 edge gets |e|/2 * q

Every element-to-dof sum is one np.bincount, which adds each dof's weights
in the order given. load_vector orders the body-force weights vertex by
vertex (vertex 0 of every triangle, then 1, then 2), then the traction
weights of the start points and of the end points, so its sums are bitwise
those of per-vertex and per-endpoint accumulation.

The stiffness of an isotropic operator with Lame pair (l, m) is
l * K_tr + 2*m * K_dev. The reference matrices are the stiffnesses of the
pairs (1, 0) and (0, 1/2): elementwise area * tr(B_i) * tr(B_j) and
area * B_i : B_j for the basis strains B_i. assemble_stiffness builds the
CSR pattern once per mesh: np.unique of the keys row * n + col of the 36
dof pairs of every element returns them in row-major CSR order, and its
inverse is each element entry's slot. Each reference matrix is one
np.bincount of its element entries over the slots.

Every element entry is a product of commuting factors (tr(B_i) * tr(B_j),
B_ia * B_ja), so the entries (i, j) and (j, i) are equal bitwise, and
bincount adds the contributions to a slot in element order. The slots
(i, j) and (j, i) get equal sums, so A == A.T holds bitwise without a
symmetrizing pass.

Entries that vanish analytically (many, on structured meshes) come out as
cancellation residue: on the presets at most 6.9e-17 of the largest entry,
against at least 6.1e-2 for a real one. Entries with |a| <= 8 eps max|a|
are not stored, so they cost neither memory nor matrix-vector time.

Dirichlet conditions are eliminated symmetrically by one mask on the
pattern: entries in a constrained row or column are zeroed and the
constrained diagonal is set to one. The column action of the unconstrained
matrix on the prescribed values is subtracted from every right-hand side.
The constrained matrix stays symmetric positive definite, and the
constrained components of the solution carry the boundary values directly.
Each system is compacted once, after the mask: its zero entries are
dropped and its index arrays are int32, the index type SuperLU takes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fields import BoundaryData, DirichletSet
from .mesh import GAMMA1, MeshGeometry
from .tensors import DDOT_WEIGHTS, Lame, Material

# entries at or below this multiple of the largest one are roundoff
_ROUNDOFF = 8.0 * np.finfo(float).eps


@dataclass(frozen=True)
class SparseSPD:
    """A constrained stiffness in CSR storage (int32 indices, no stored
    zeros): symmetric positive definite, with unit diagonal rows at the
    constrained dofs. column_action is the unconstrained matrix times the
    prescribed values, which reduce_rhs moves to the right-hand side."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    constrained: np.ndarray
    values: np.ndarray
    column_action: np.ndarray

    @property
    def n(self) -> int:
        return len(self.indptr) - 1

    @cached_property
    def norm_inf(self) -> float:
        """Largest absolute row sum."""
        return float(_row_sums(self.indptr, np.abs(self.data)).max())

    def matvec(self, x) -> np.ndarray:
        return _row_sums(self.indptr, self.data * np.asarray(x, dtype=float)[self.indices])

    def reduce_rhs(self, rhs: np.ndarray) -> np.ndarray:
        """The right-hand side of the constrained system for a load rhs."""
        out = np.asarray(rhs, dtype=float) - self.column_action
        out[self.constrained] = self.values
        return out


def _row_sums(indptr, values) -> np.ndarray:
    """Per CSR row, the sum of its stored values. Every row of a stiffness
    pattern holds its diagonal, so no row is empty."""
    return np.add.reduceat(values, indptr[:-1])


@dataclass(frozen=True)
class Stiffness:
    """K_tr and K_dev on one CSR pattern, and the Dirichlet set that
    constrains them (see the module docstring)."""

    indptr: np.ndarray
    indices: np.ndarray
    trace: np.ndarray    # data of K_tr
    dev: np.ndarray      # data of K_dev
    dirichlet: DirichletSet
    cleared: np.ndarray  # per stored entry: in a constrained row or column
    pinned: np.ndarray   # slots of the constrained diagonal entries

    def system(self, pair: Lame | Material) -> SparseSPD:
        """Constrained stiffness of a Lame pair."""
        data = pair.lam * self.trace + 2.0 * pair.mu * self.dev
        data[np.abs(data) <= _ROUNDOFF * np.abs(data).max()] = 0.0
        ds = self.dirichlet
        lift = np.zeros(len(self.indptr) - 1)
        lift[ds.dofs] = ds.flat_values
        column_action = _row_sums(self.indptr, data * lift[self.indices])
        data[self.cleared] = 0.0
        data[self.pinned] = 1.0
        keep = data != 0.0
        kept_before = np.concatenate(([0], np.cumsum(keep)))  # entries kept before each slot
        return SparseSPD(kept_before[self.indptr].astype(np.int32), self.indices[keep], data[keep],
                         ds.dofs, ds.flat_values, column_action)


def assemble_stiffness(geom: MeshGeometry, ds: DirichletSet) -> Stiffness:
    """The reference matrices K_tr and K_dev of a mesh on their CSR pattern,
    constrained by ds (see the module docstring)."""
    n = geom.n_dofs
    keys = (geom.dofs[:, :, None] * n + geom.dofs[:, None, :]).ravel()
    keys, slot = np.unique(keys, return_inverse=True)
    rows, cols = np.divmod(keys, n)

    B = geom.strain_basis  # (m, 6, 3)
    area = geom.areas[:, None, None]
    tr = B[:, :, 0] + B[:, :, 1]
    trace = np.bincount(slot, weights=(area * (tr[:, :, None] * tr[:, None, :])).ravel())
    dev = area * (B[:, :, None, 0] * B[:, None, :, 0])
    for a in (1, 2):
        dev += DDOT_WEIGHTS[a] * (area * (B[:, :, None, a] * B[:, None, :, a]))
    dev = np.bincount(slot, weights=dev.ravel())

    fixed = np.zeros(n, dtype=bool)
    fixed[ds.dofs] = True
    cleared = fixed[rows] | fixed[cols]
    return Stiffness(
        indptr=np.searchsorted(rows, np.arange(n + 1)),
        indices=cols.astype(np.int32),
        trace=trace,
        dev=dev,
        dirichlet=ds,
        cleared=cleared,
        pinned=np.flatnonzero(cleared & (rows == cols)),
    )


def tensor_load(geom: MeshGeometry, W: np.ndarray) -> np.ndarray:
    """(W, e[v]) for a P0 tensor field W, as a vector over all dofs."""
    contrib = np.einsum("ea,eda->ed", np.asarray(W, dtype=float) * DDOT_WEIGHTS, geom.strain_basis)
    contrib *= geom.areas[:, None]
    return np.bincount(geom.dofs.ravel(), weights=contrib.ravel(), minlength=geom.n_dofs)


def load_vector(geom: MeshGeometry, bd: BoundaryData) -> np.ndarray:
    """The load functional (f, v) + (q, v)_GAMMA1 over all dofs."""
    mesh = geom.mesh
    on_gamma1 = mesh.edge_labels == GAMMA1
    # weights in the order of the module docstring
    nodes = np.concatenate([mesh.triangles.T.ravel(), mesh.edges[on_gamma1].T.ravel()])
    share = np.concatenate([
        np.tile(geom.areas / 3.0, 3)[:, None] * bd.f,
        np.tile(0.5 * mesh.edge_lengths()[on_gamma1], 2)[:, None] * bd.q,
    ])
    dofs = 2 * nodes[:, None] + np.arange(2)
    return np.bincount(dofs.ravel(), weights=share.ravel(), minlength=geom.n_dofs)
