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
bookkeeping relies on. AffineMap and BoundaryData store their numbers as
float tuples, the matrix as its two rows, so a configuration is a hashable value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import GAMMA0, Mesh, MeshGeometry


@dataclass(frozen=True)
class AffineMap:
    """x -> matrix @ x + offset, the admissible form of Dirichlet data g."""

    matrix: tuple[tuple[float, float], tuple[float, float]]
    offset: tuple[float, float]

    def __post_init__(self):
        rows = np.asarray(self.matrix, dtype=float).reshape(2, 2).tolist()
        object.__setattr__(self, "matrix", tuple(map(tuple, rows)))
        object.__setattr__(self, "offset", _pair(self.offset))

    def __call__(self, x) -> np.ndarray:
        return np.asarray(x, dtype=float) @ np.array(self.matrix).T + self.offset

    @classmethod
    def zero(cls) -> "AffineMap":
        return cls(np.zeros((2, 2)), np.zeros(2))

    @classmethod
    def from_coefficients(cls, coeffs) -> "AffineMap":
        """Six numbers: the 2x2 matrix row-major, then the offset."""
        c = np.asarray(coeffs, dtype=float).reshape(6)
        return cls(c[:4].reshape(2, 2), c[4:])

    def coefficients(self) -> tuple[float, ...]:
        return (*self.matrix[0], *self.matrix[1], *self.offset)


@dataclass(frozen=True)
class BoundaryData:
    """Problem data: Dirichlet map g, traction q on GAMMA1, body force f."""

    g: AffineMap
    q: tuple[float, float]
    f: tuple[float, float]

    def __post_init__(self):
        object.__setattr__(self, "q", _pair(self.q))
        object.__setattr__(self, "f", _pair(self.f))


def _pair(values) -> tuple[float, float]:
    return tuple(np.asarray(values, dtype=float).reshape(2).tolist())


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
