"""Assembly of the P1/P0 bilinear forms and load functionals.

Every volume integrand here is piecewise constant (P1 strains against P0
tensors), so one-point centroid quadrature is exact and an element matrix is
just area * (T e_i) : e_j for the six local basis strains, which are the
element's columns of the mesh's strain operator S (mesh.MeshGeometry). The
load uses the two exact low-order rules for the data admitted by this
solver:

    body force f (constant):     each vertex of a triangle gets area/3 * f
    traction q (constant):       each endpoint of a GAMMA1 edge gets |e|/2 * q

The tensor load (W, e[v]) of a P0 field W is S^T (W * inner_weights), one
csc_matvec on S's arrays (csr): it adds each element's 12 entries to their
dofs element by element, component by component. The load vector is one
np.bincount, which adds each dof's weights in the order given: the
body-force weights vertex by vertex (vertex 0 of every triangle, then 1,
then 2), then the traction weights of the start points and of the end
points, so its sums are bitwise those of per-vertex and per-endpoint
accumulation.

The stiffness of an isotropic operator with Lame pair (l, m) is
l * K_tr + 2*m * K_dev. The reference matrices are the stiffnesses of the
pairs (1, 0) and (0, 1/2): elementwise area * tr(B_i) * tr(B_j) and
area * B_i : B_j for the basis strains B_i. Both are read off S's data:
tr(B_i) is the gradient entry of dof i's xx or yy row, and B_i : B_j is
the product of the xx entries (two x dofs) or of the yy entries (two y
dofs), plus twice the product of the xy entries, which every pair has.
assemble_stiffness builds the CSR pattern once per mesh: np.unique of the
keys row * n + col of the 36 dof pairs of every element returns them in
row-major CSR order, and its inverse is each element entry's slot. Each
reference matrix is one np.bincount of its element entries over the slots.

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
dropped. Its index arrays are int32, the index type SuperLU takes, and its
matvec is csr_matvec (csr).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .csr import CSR
from .fields import BoundaryData, DirichletSet
from .mesh import GAMMA1, MeshGeometry
from .tensors import DDOT_WEIGHTS, Lame, Material

# entries at or below this multiple of the largest one are roundoff
_ROUNDOFF = 8.0 * np.finfo(float).eps


@dataclass(frozen=True)
class SparseSPD(CSR):
    """A constrained stiffness in CSR storage (no stored zeros): symmetric
    positive definite, with unit diagonal rows at the constrained dofs.
    column_action is the unconstrained matrix times the prescribed values,
    which reduce_rhs moves to the right-hand side."""

    constrained: np.ndarray
    values: np.ndarray
    column_action: np.ndarray

    @property
    def n(self) -> int:
        return self.n_rows

    @cached_property
    def norm_inf(self) -> float:
        """Largest absolute row sum."""
        magnitudes = CSR(self.indptr, self.indices, np.abs(self.data), self.n)
        return float(magnitudes.matvec(np.ones(self.n)).max())

    def reduce_rhs(self, rhs: np.ndarray) -> np.ndarray:
        """The right-hand side of the constrained system for a load rhs."""
        out = np.asarray(rhs, dtype=float) - self.column_action
        out[self.constrained] = self.values
        return out


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
        column_action = CSR(self.indptr, self.indices, data, len(lift)).matvec(lift)
        data[self.cleared] = 0.0
        data[self.pinned] = 1.0
        keep = data != 0.0
        kept_before = np.concatenate(([0], np.cumsum(keep)))  # entries kept before each slot
        return SparseSPD(kept_before[self.indptr].astype(np.int32), self.indices[keep], data[keep],
                         len(lift), ds.dofs, ds.flat_values, column_action)


def assemble_stiffness(geom: MeshGeometry, ds: DirichletSet) -> Stiffness:
    """The reference matrices K_tr and K_dev of a mesh on their CSR pattern,
    constrained by ds (see the module docstring)."""
    n = geom.n_dofs
    dofs = geom.dofs  # int32; the keys are int64
    keys = (dofs[:, :, None] * np.int64(n) + dofs[:, None, :]).ravel()
    keys, slot = np.unique(keys, return_inverse=True)
    rows, cols = np.divmod(keys, n)

    # each element's 12 entries of S: gx at its x dofs, gy at its y dofs,
    # then its xy entries at all six
    entries = geom.S.data.reshape(-1, 12)
    gx, gy, xy = entries[:, 0:3], entries[:, 3:6], entries[:, 6:12]
    area = geom.areas[:, None, None]
    tr = np.empty((len(entries), 6))
    tr[:, 0::2], tr[:, 1::2] = gx, gy
    trace = np.bincount(slot, weights=(area * (tr[:, :, None] * tr[:, None, :])).ravel())
    dev = DDOT_WEIGHTS[2] * (area * (xy[:, :, None] * xy[:, None, :]))
    dev[:, 0::2, 0::2] += area * (gx[:, :, None] * gx[:, None, :])
    dev[:, 1::2, 1::2] += area * (gy[:, :, None] * gy[:, None, :])
    dev = np.bincount(slot, weights=dev.ravel())

    fixed = np.zeros(n, dtype=bool)
    fixed[ds.dofs] = True
    cleared = fixed[rows] | fixed[cols]
    return Stiffness(
        indptr=np.searchsorted(rows, np.arange(n + 1)).astype(np.int32),
        indices=cols.astype(np.int32),
        trace=trace,
        dev=dev,
        dirichlet=ds,
        cleared=cleared,
        pinned=np.flatnonzero(cleared & (rows == cols)),
    )


def tensor_load(geom: MeshGeometry, W: np.ndarray) -> np.ndarray:
    """(W, e[v]) for a P0 tensor field W, as a vector over all dofs:
    S^T (W * inner_weights)."""
    return geom.S.rmatvec(np.reshape(W, -1) * geom.inner_weights)


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
