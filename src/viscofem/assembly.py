"""Assembly of the P1/P0 bilinear forms and load functionals.

Every volume integrand here is piecewise constant (P1 strains against P0
tensors), so one-point centroid quadrature is exact and an element matrix is
just area * (T e_i) : e_j for the six local basis strains. The load uses the
two exact low-order rules for the data admitted by this solver:

    body force f (constant):     each vertex of a triangle gets area/3 * f
    traction q (constant):       each endpoint of a GAMMA1 edge gets |e|/2 * q

Dirichlet conditions are eliminated symmetrically: constrained rows and
columns are zeroed with a unit diagonal put back, and the column action on
the prescribed values is subtracted from the right-hand side. The reduced
matrix stays symmetric positive definite, and the constrained components of
the solution carry the boundary values directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse

from .fields import BoundaryData, DirichletSet
from .mesh import GAMMA1, MeshGeometry
from .tensors import DDOT_WEIGHTS, Lame, Material, apply_C


@dataclass
class SparseSPD:
    """Symmetric positive definite system in CSR storage.

    Before elimination `constrained` is empty. After apply_dirichlet the
    matrix has unit diagonal rows at the constrained dofs, and the cached
    `column_action` (full matrix times the prescribed lift) lets later
    right-hand sides be reduced without reassembly.
    """

    matrix: sparse.csr_matrix
    constrained: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    values: np.ndarray = field(default_factory=lambda: np.empty(0))
    column_action: np.ndarray | None = None

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def reduce_rhs(self, rhs: np.ndarray) -> np.ndarray:
        """Apply the stored elimination to a fresh right-hand side."""
        if self.column_action is None:
            raise ValueError("system has not been through apply_dirichlet")
        out = np.asarray(rhs, dtype=float) - self.column_action
        out[self.constrained] = self.values
        return out


def assemble_stiffness(geom: MeshGeometry, pair: Lame | Material) -> SparseSPD:
    """Stiffness of the isotropic operator T of a Lame pair.

    Entries are (T e[v_i], e[v_j]) summed over elements; T is the elasticity
    tensor for a Material and the condensed operator for
    StepParams.condensed. Element matrices are symmetrized before scatter so
    the assembled matrix is exactly equal to its transpose.
    """
    B = geom.strain_basis  # (m, 6, 3)
    TB = apply_C(pair, B)
    Ke = np.einsum("eia,a,eja->eij", TB, DDOT_WEIGHTS, B) * geom.areas[:, None, None]
    Ke = 0.5 * (Ke + np.swapaxes(Ke, 1, 2))

    rows = np.broadcast_to(geom.dofs[:, :, None], Ke.shape).ravel()
    cols = np.broadcast_to(geom.dofs[:, None, :], Ke.shape).ravel()
    return SparseSPD(matrix=_accumulate_csr(rows, cols, Ke.ravel(), geom.n_dofs))


def _accumulate_csr(rows, cols, data, n) -> sparse.csr_matrix:
    """Sum duplicate (row, col) entries in element order and build CSR.

    scipy's own duplicate handling may sum a transposed entry pair in a
    different order, which breaks exact A == A.T. A stable sort keeps the
    duplicate sequences of (i, j) and (j, i) identical, so the sums agree
    bitwise when the element matrices are symmetric.
    """
    lin = rows * n + cols
    order = np.argsort(lin, kind="stable")
    lin = lin[order]
    data = data[order]
    unique, starts = np.unique(lin, return_index=True)
    sums = np.add.reduceat(data, starts)
    return sparse.csr_matrix((sums, (unique // n, unique % n)), shape=(n, n))


def tensor_load(geom: MeshGeometry, W: np.ndarray) -> np.ndarray:
    """(W, e[v]) for a P0 tensor field W, as a vector over all dofs."""
    contrib = np.einsum("ea,a,eda->ed", np.asarray(W, dtype=float), DDOT_WEIGHTS, geom.strain_basis)
    contrib *= geom.areas[:, None]
    out = np.zeros(geom.n_dofs)
    np.add.at(out, geom.dofs, contrib)
    return out


def load_vector(geom: MeshGeometry, bd: BoundaryData) -> np.ndarray:
    """The load functional (f, v) + (q, v)_GAMMA1 over all dofs."""
    mesh = geom.mesh
    out = np.zeros(geom.n_dofs)

    # vertex rule, exact for constant f against P1 test functions
    share = geom.areas / 3.0
    for i in range(3):
        np.add.at(out, 2 * mesh.triangles[:, i], share * bd.f[0])
        np.add.at(out, 2 * mesh.triangles[:, i] + 1, share * bd.f[1])

    # endpoint rule, exact for constant q against P1 traces
    on_gamma1 = mesh.edge_labels == GAMMA1
    if np.any(on_gamma1):
        edges = mesh.edges[on_gamma1]
        half = 0.5 * mesh.edge_lengths()[on_gamma1]
        for c in (0, 1):
            np.add.at(out, 2 * edges[:, 0] + c, half * bd.q[c])
            np.add.at(out, 2 * edges[:, 1] + c, half * bd.q[c])
    return out


def apply_dirichlet(system: SparseSPD, rhs: np.ndarray, ds: DirichletSet) -> tuple[SparseSPD, np.ndarray]:
    """Symmetric elimination of the Dirichlet dofs.

    Returns a new system (unit diagonal at constrained dofs, zeroed rows and
    columns elsewhere in those lines) along with the reduced right-hand
    side. The input system is not modified.
    """
    if system.column_action is not None:
        raise ValueError("system has already been through apply_dirichlet")
    A = system.matrix
    n = system.dimension
    dofs = ds.dofs
    vals = ds.flat_values

    lift = np.zeros(n)
    lift[dofs] = vals
    column_action = A @ lift

    keep = np.ones(n)
    keep[dofs] = 0.0
    S = sparse.diags(keep)
    pinned = np.zeros(n)
    pinned[dofs] = 1.0
    reduced_matrix = (S @ A @ S + sparse.diags(pinned)).tocsr()

    reduced = SparseSPD(
        matrix=reduced_matrix,
        constrained=dofs,
        values=vals,
        column_action=column_action,
    )
    return reduced, reduced.reduce_rhs(np.asarray(rhs, dtype=float))
