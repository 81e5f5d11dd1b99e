"""Discrete fields and boundary data for the P1/P0 pairing.

Field storage conventions, used as-is by every downstream module:

    displacement (P1)      (n_nodes, 2) float, nodal values
    tensor field (P0)      (n_triangles, 3) float, rows (xx, yy, xy)

P1 displacements have elementwise-constant strain, so the strain of a P1
field is a P0 tensor field and one-point quadrature is exact everywhere it
is used. strain_field is one product with the mesh's strain operator S
(mesh.MeshGeometry), a csr_matvec (csr) that sums each strain component's
stored entries in local dof order.

Boundary data is deliberately time independent: g affine, q and f
constant. That keeps the load functional fixed over a run, which the energy
bookkeeping relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import GAMMA0, Mesh, MeshGeometry


@dataclass(frozen=True)
class AffineMap:
    """x -> matrix @ x + offset, the admissible form of Dirichlet data g."""

    matrix: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=float).reshape(2, 2))
        object.__setattr__(self, "offset", np.asarray(self.offset, dtype=float).reshape(2))

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return x @ self.matrix.T + self.offset

    def __eq__(self, other) -> bool:
        if not isinstance(other, AffineMap):
            return NotImplemented
        return np.array_equal(self.matrix, other.matrix) and np.array_equal(self.offset, other.offset)

    @classmethod
    def zero(cls) -> "AffineMap":
        return cls(np.zeros((2, 2)), np.zeros(2))

    @classmethod
    def from_coefficients(cls, coeffs) -> "AffineMap":
        """Six numbers: the 2x2 matrix row-major, then the offset."""
        c = np.asarray(coeffs, dtype=float).reshape(6)
        return cls(c[:4].reshape(2, 2), c[4:])

    def coefficients(self) -> np.ndarray:
        return np.concatenate([self.matrix.ravel(), self.offset])


@dataclass(frozen=True)
class BoundaryData:
    """Problem data: Dirichlet map g, traction q on GAMMA1, body force f."""

    g: AffineMap
    q: np.ndarray
    f: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float).reshape(2))
        object.__setattr__(self, "f", np.asarray(self.f, dtype=float).reshape(2))

    def __eq__(self, other) -> bool:
        if not isinstance(other, BoundaryData):
            return NotImplemented
        return (
            self.g == other.g
            and np.array_equal(self.q, other.q)
            and np.array_equal(self.f, other.f)
        )


@dataclass(frozen=True)
class DirichletSet:
    """Constrained nodes (the closure of the GAMMA0 edges) and their values."""

    nodes: np.ndarray   # (k,) int
    values: np.ndarray  # (k, 2) float

    @property
    def dofs(self) -> np.ndarray:
        """Flat dof indices, dof = 2*node + component."""
        return np.column_stack([2 * self.nodes, 2 * self.nodes + 1]).ravel()

    @property
    def flat_values(self) -> np.ndarray:
        return self.values.ravel()


def build_dirichlet(mesh: Mesh, g: AffineMap) -> DirichletSet:
    """Collect every node on a GAMMA0 edge and evaluate g there.

    Nodes shared between a GAMMA0 and a GAMMA1 edge (the corner case) are
    constrained: the Dirichlet condition holds on the closure.
    """
    gamma0 = mesh.edges[mesh.edge_labels == GAMMA0]
    if gamma0.size == 0:
        raise ValueError("mesh has no Dirichlet (GAMMA0) edges; classify the boundary first")
    nodes = np.unique(gamma0)
    return DirichletSet(nodes=nodes, values=g(mesh.nodes[nodes]))


def zero_tensor_field(mesh: Mesh) -> np.ndarray:
    return np.zeros((mesh.n_triangles, 3))


def strain_field(geom: MeshGeometry, u: np.ndarray) -> np.ndarray:
    """Strain of a P1 displacement as a P0 tensor field: S u, one product
    with the mesh's strain operator."""
    return geom.S.matvec(np.reshape(u, -1)).reshape(-1, 3)
