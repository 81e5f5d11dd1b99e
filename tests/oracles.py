"""Independent matrix-route oracles for the closed-form operator algebra.

The package forms every fourth-order operator from a closed-form Lame pair.
These helpers rebuild the same operators as explicit 3x3 matrices acting on
the coordinate vector (xx, yy, xy) and invert them with generic linear
algebra (sympy over exact rationals, numpy over floats), and apply_C
evaluates an operator componentwise, without any matrix. Agreement between
the routes is what the operator tests assert.

Conventions match the package: tensor shear storage, so the contraction
weight matrix is diag(1, 1, 2) and the elasticity operator maps the (xx,
yy, xy) coordinates by

    [[lam + 2 mu, lam,        0   ],
     [lam,        lam + 2 mu, 0   ],
     [0,          0,          2 mu]]
"""

from dataclasses import replace

import mpmath
import numpy as np
import scipy.sparse as sparse
import sympy as sp
from hypothesis import strategies as st
from scipy.spatial import Delaunay

from viscofem.config import config_text
from viscofem.fields import AffineMap, BoundaryData, DirichletSet, strain_field
from viscofem.mesh import GAMMA0, GAMMA1, Mesh
from viscofem.tensors import Material, isotropic, stress

# the Dirichlet set of no node: a Stiffness built with it is unconstrained
NO_DIRICHLET = DirichletSet(nodes=np.empty(0, dtype=np.int64), values=np.empty((0, 2)))


def admissible(draw_alpha):
    """Materials with mu in [0.1, 10] and lam = mu * (shift - 1), shift in
    [1e-6, 5]: lam reaches down to within 1e-6 mu of the floor -mu."""
    return st.builds(
        lambda mu, shift, eta, alpha: Material(lam=mu * (shift - 1.0), mu=mu, eta=eta, alpha=alpha),
        st.floats(0.1, 10.0), st.floats(1e-6, 5.0), st.floats(0.1, 10.0), draw_alpha)


MATERIALS = admissible(st.one_of(st.just(0.0), st.floats(0.0, 5.0)))
TAUS = st.floats(1e-4, 10.0)


def elasticity_matrix(lam, mu):
    """3x3 coordinate matrix of X -> lam*tr(X)*I + 2*mu*X."""
    return sp.Matrix(
        [
            [lam + 2 * mu, lam, 0],
            [lam, lam + 2 * mu, 0],
            [0, 0, 2 * mu],
        ]
    )


def step_matrix(lam, mu, eta, alpha, tau):
    """3x3 coordinate matrix of X -> (eta/tau + alpha)*X + C X."""
    c = sp.sympify(eta) / sp.sympify(tau) + sp.sympify(alpha)
    return sp.eye(3) * c + elasticity_matrix(lam, mu)


def step_inverse_matrix(lam, mu, eta, alpha, tau):
    """Exact inverse of the step matrix (generic matrix inversion)."""
    return step_matrix(lam, mu, eta, alpha, tau).inv()


def effective_matrix(lam, mu, eta, alpha, tau):
    """3x3 coordinate matrix of the condensed stiffness.

    Derived by eliminating phi from the coupled pair rather than by
    transcribing a closed form. With R phi = C e + (eta/tau) phi_prev and
    sigma = C (e - phi), the phi_prev-independent part of sigma is

        C e - C R^-1 C e

    so the effective operator is C (I - R^-1 C), assembled here in exact
    arithmetic from generic matrix inversion.
    """
    C = elasticity_matrix(lam, mu)
    Rinv = step_inverse_matrix(lam, mu, eta, alpha, tau)
    return C * (sp.eye(3) - Rinv * C)


def drag_matrix(lam, mu, eta, alpha, tau):
    """3x3 coordinate matrix of X -> (eta/tau) * C R^-1 X, the operator that
    carries phi_prev into the condensed right-hand side."""
    rate = sp.sympify(eta) / sp.sympify(tau)
    return rate * elasticity_matrix(lam, mu) * step_inverse_matrix(lam, mu, eta, alpha, tau)


def update_strain_matrix(lam, mu, eta, alpha, tau):
    """3x3 coordinate matrix of X -> C R^-1 X, the operator that carries the
    new strain into the updated tensor field."""
    return elasticity_matrix(lam, mu) * step_inverse_matrix(lam, mu, eta, alpha, tau)


def update_prev_matrix(lam, mu, eta, alpha, tau):
    """3x3 coordinate matrix of X -> (eta/tau) R^-1 X, the operator that
    carries phi_prev into the updated tensor field."""
    rate = sp.sympify(eta) / sp.sympify(tau)
    return rate * step_inverse_matrix(lam, mu, eta, alpha, tau)


def apply_C(lam, mu, X) -> np.ndarray:
    """The isotropic operator of the Lame pair (lam, mu), componentwise:
    lam*tr(X)*I + 2*mu*X on (..., 3) arrays."""
    X = np.asarray(X, dtype=float)
    out = 2.0 * mu * X
    t = lam * (X[..., 0] + X[..., 1])
    out[..., 0] += t
    out[..., 1] += t
    return out


def stress_of(geom, m, u, phi):
    """The Stress of the state (u, phi) of material m, formed from scratch."""
    return stress(isotropic(m.lam, m.mu), strain_field(geom, u), phi)


def to_float(matrix) -> np.ndarray:
    return np.array(matrix.evalf(25).tolist(), dtype=float)


def apply_matrix(matrix, x) -> np.ndarray:
    return to_float(matrix) @ np.asarray(x, dtype=float)


def as_matrix(x) -> np.ndarray:
    """The symmetric 2x2 matrix [[xx, xy], [xy, yy]] of a stored tensor."""
    xx, yy, xy = np.asarray(x, dtype=float)
    return np.array([[xx, xy], [xy, yy]])


def as_csr(matrix) -> sparse.csr_matrix:
    """A viscofem CSR (a SparseSPD, or a mesh's strain operator) as a
    scipy.sparse matrix, for dense, transpose and pattern comparisons."""
    return sparse.csr_matrix((matrix.data, matrix.indices, matrix.indptr),
                             shape=(matrix.n_rows, matrix.n_cols))


def dense_spd_solve(A, b) -> np.ndarray:
    """Reference dense solve used against the sparse factor."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.linalg.solve(A, b)


def monolithic_step(nodes, triangles, dir_nodes, dir_values,
                    lam, mu, eta, alpha, tau, phi_prev, f=None):
    """One coupled implicit step solved as a single dense linear system.

    The package splits the step into a condensed displacement solve followed
    by a closed-form tensor update. This oracle refuses the split: it stacks
    the free displacement dofs and all per-element tensor components into one
    vector of unknowns, writes the equilibrium rows and the tensor update
    rows directly from the nodal coordinates, and hands the square system to
    numpy, refining the solution with residuals computed in 40 digits. No
    geometry or assembly code is shared with the package.

    The refinement matters at large eta/tau: the tensor rows scale with
    it, the condition number of the system reaches 1.4e5 at eta/tau = 1e5,
    and the plain double solve is then off by up to 1.4e-11, while the
    refined one agrees with a 60-digit solve of the same system to 1e-16.

    dir_nodes/dir_values pin displacement nodes (values (k, 2)); f is an
    optional constant body force applied with the vertex quadrature rule.
    Returns (u, phi) for the new time level.
    """
    nodes = np.asarray(nodes, dtype=float)
    triangles = np.asarray(triangles, dtype=int)
    phi_prev = np.asarray(phi_prev, dtype=float)
    n_nodes = nodes.shape[0]
    n_tri = triangles.shape[0]
    n_u = 2 * n_nodes
    size = n_u + 3 * n_tri

    W = np.diag([1.0, 1.0, 2.0])
    Cm = np.array(
        [
            [lam + 2 * mu, lam, 0.0],
            [lam, lam + 2 * mu, 0.0],
            [0.0, 0.0, 2 * mu],
        ]
    )
    drag = eta / tau

    A = np.zeros((size, size))
    b = np.zeros(size)

    for t in range(n_tri):
        tri = triangles[t]
        p = nodes[tri]
        d1 = p[1] - p[0]
        d2 = p[2] - p[0]
        det = d1[0] * d2[1] - d1[1] * d2[0]
        area = 0.5 * det
        grads = np.empty((3, 2))
        for i in range(3):
            pj = p[(i + 1) % 3]
            pk = p[(i + 2) % 3]
            grads[i] = [(pj[1] - pk[1]) / det, (pk[0] - pj[0]) / det]
        # strain coordinates (xx, yy, xy) of each local displacement basis
        B = np.zeros((6, 3))
        for i in range(3):
            B[2 * i] = [grads[i, 0], 0.0, 0.5 * grads[i, 1]]
            B[2 * i + 1] = [0.0, grads[i, 1], 0.5 * grads[i, 0]]
        dofs = np.empty(6, dtype=int)
        dofs[0::2] = 2 * tri
        dofs[1::2] = 2 * tri + 1
        cols = n_u + 3 * t + np.arange(3)

        # equilibrium rows: (C(e[u] - phi), e[v]) = l(v)
        A[np.ix_(dofs, dofs)] += area * (B @ W @ Cm @ B.T)
        A[np.ix_(dofs, cols)] += -area * (B @ W @ Cm)
        if f is not None:
            for i in range(3):
                b[dofs[2 * i]] += area / 3.0 * f[0]
                b[dofs[2 * i + 1]] += area / 3.0 * f[1]

        # tensor update rows: (eta/tau + alpha) phi + C phi - C e[u] = (eta/tau) phi_prev
        A[np.ix_(cols, cols)] += (drag + alpha) * np.eye(3) + Cm
        A[np.ix_(cols, dofs)] += -(Cm @ B.T)
        b[cols] += drag * phi_prev[t]

    for node, value in zip(np.asarray(dir_nodes, dtype=int),
                           np.asarray(dir_values, dtype=float)):
        for c in range(2):
            dof = 2 * node + c
            A[dof, :] = 0.0
            A[dof, dof] = 1.0
            b[dof] = value[c]

    x = np.linalg.solve(A, b)
    with mpmath.workdps(40):
        A_mp, b_mp = mpmath.matrix(A.tolist()), mpmath.matrix(b.tolist())
        for _ in range(2):
            r = b_mp - A_mp * mpmath.matrix(x.tolist())
            x = x + np.linalg.solve(A, np.array(r.tolist(), dtype=float).ravel())
    return x[:n_u].reshape(n_nodes, 2), x[n_u:].reshape(n_tri, 3)


# ---------------------------------------------------------------------------
# test-side data helpers
# ---------------------------------------------------------------------------


def loop_edge_groups(triangles) -> np.ndarray:
    """Per triangle, the smallest triangle index of its edge-connected
    group, by union-find over a dict of the triangles of each edge."""
    parent = list(range(len(triangles)))

    def root(t):
        while parent[t] != t:
            t = parent[t]
        return t

    first = {}
    for t, tri in enumerate(triangles):
        for i in range(3):
            edge = tuple(sorted((int(tri[i]), int(tri[(i + 1) % 3]))))
            if edge in first:
                a, b = root(first[edge]), root(t)
                parent[max(a, b)] = min(a, b)
            else:
                first[edge] = t
    return np.array([root(t) for t in range(len(triangles))])


def interpolate(mesh, func) -> np.ndarray:
    """Nodal interpolation of a (vectorized) map R^2 -> R^2."""
    return np.asarray(func(mesh.nodes), dtype=float).reshape(mesh.n_nodes, 2)


def gradients(geom) -> np.ndarray:
    """(m, 3, 2) barycentric gradients, read off the xx and yy rows of geom.S."""
    rows = geom.S.data.reshape(-1, 12)
    return np.stack([rows[:, 0:3], rows[:, 3:6]], axis=-1)


def element_strain_basis(mesh) -> tuple[np.ndarray, np.ndarray]:
    """(m, 6, 3) strains of the six local basis functions of each element,
    local dof order (n0x, n0y, n1x, n1y, n2x, n2y), and the (m, 6) global
    dofs, from the nodes alone, by MeshGeometry's gradient formula."""
    p = mesh.nodes[mesh.triangles]
    d1, d2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    B = np.zeros((mesh.n_triangles, 6, 3))
    for i in range(3):
        pj, pk = p[:, (i + 1) % 3], p[:, (i + 2) % 3]
        gx = (pj[:, 1] - pk[:, 1]) / det
        gy = (pk[:, 0] - pj[:, 0]) / det
        B[:, 2 * i, 0] = gx
        B[:, 2 * i, 2] = 0.5 * gy
        B[:, 2 * i + 1, 1] = gy
        B[:, 2 * i + 1, 2] = 0.5 * gx
    dofs = np.empty((mesh.n_triangles, 6), dtype=np.int64)
    dofs[:, 0::2] = 2 * mesh.triangles
    dofs[:, 1::2] = 2 * mesh.triangles + 1
    return B, dofs


def einsum_strain_field(geom, u) -> np.ndarray:
    """strain_field as each element's six dof values against its six basis
    strains, by a two-operand einsum."""
    B, dofs = element_strain_basis(geom.mesh)
    return np.einsum("md,mdc->mc", np.asarray(u, dtype=float).reshape(-1)[dofs], B)


def zero_displacement(mesh) -> np.ndarray:
    return np.zeros((mesh.n_nodes, 2))


def homogeneous_data() -> BoundaryData:
    """Zero Dirichlet map, traction and body force."""
    return BoundaryData(g=AffineMap.zero(), q=np.zeros(2), f=np.zeros(2))


def save_mesh(mesh, path) -> None:
    """Write a mesh in the text format viscofem.mesh.load_mesh reads."""
    with open(path, "w") as f:
        f.write(f"nodes {mesh.n_nodes}\n")
        for x, y in mesh.nodes:
            f.write(f"{float(x)!r} {float(y)!r}\n")
        f.write(f"triangles {mesh.n_triangles}\n")
        for i, j, k in mesh.triangles:
            f.write(f"{i} {j} {k}\n")
        f.write(f"boundary {len(mesh.edges)}\n")
        for (i, j), lab in zip(mesh.edges, mesh.edge_labels):
            f.write(f"{i} {j} {lab}\n")


def write_config(cfg, path) -> None:
    with open(path, "w") as f:
        f.write(config_text(cfg))


def read_vtk(path) -> tuple[list[str], dict[str, np.ndarray]]:
    """The text lines and the data blocks of a legacy binary VTK file as
    viscofem.outputs.write_vtk writes it, blocks keyed by section or field
    name. Each block is read by the count its header gives, as big-endian
    doubles or 4-byte ints, and must end in a newline."""
    lines, blocks, count = [], {}, 0
    with open(path, "rb") as f:
        def block(key, dtype, size):
            blocks[key] = np.frombuffer(f.read(size * np.dtype(dtype).itemsize), dtype)
            assert f.read(1) == b"\n", f"block {key} does not end in a newline"
        while line := f.readline().decode("ascii").rstrip("\n"):
            lines.append(line)
            word, *args = line.split()
            if word in ("POINT_DATA", "CELL_DATA"):
                count = int(args[0])
            elif word == "POINTS":
                block(word, ">f8", 3 * int(args[0]))
            elif word == "VECTORS":
                block(args[0], ">f8", 3 * count)
            elif word in ("CELLS", "CELL_TYPES"):
                block(word, ">i4", int(args[-1]))
            elif word == "LOOKUP_TABLE":
                block(lines[-2].split()[1], ">f8", count)
    return lines, blocks


def delaunay_mesh(n=6, seed=0) -> Mesh:
    """Unstructured mesh of a 4n-gon inscribed in the unit circle.

    Delaunay triangulation of the polygon's vertices and a jittered grid of
    interior points (spacing 2/n, inside radius 0.85). No three boundary
    points are collinear, so the hull edges are the boundary; all are
    labeled GAMMA1. Interior nodes get differing stencils, unlike on the
    structured meshes.
    """
    rng = np.random.default_rng(seed)
    angles = 2.0 * np.pi * np.arange(4 * n) / (4 * n)
    rim = np.column_stack([np.cos(angles), np.sin(angles)])
    s = np.linspace(-1.0, 1.0, n + 1)
    grid = np.column_stack([a.ravel() for a in np.meshgrid(s, s)])
    grid = grid[np.hypot(grid[:, 0], grid[:, 1]) < 0.85]
    grid += rng.uniform(-0.25, 0.25, grid.shape) * (2.0 / n)
    nodes = np.vstack([rim, grid])
    dt = Delaunay(nodes)
    triangles = dt.simplices.astype(np.int64)
    p = nodes[triangles]
    d1, d2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    cw = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0] < 0
    triangles[cw] = triangles[cw][:, [0, 2, 1]]
    edges = dt.convex_hull.astype(np.int64)
    return Mesh(nodes=nodes, triangles=triangles, edges=edges,
                edge_labels=np.full(len(edges), GAMMA1, dtype=np.int64))


def left_arc(mesh) -> Mesh:
    """mesh with the boundary edges whose midpoints lie left of x = -0.5
    labeled GAMMA0 and the others GAMMA1: a Dirichlet part of the
    delaunay_mesh polygon, which no named side of the unit square labels."""
    inside = mesh.edge_midpoints()[:, 0] < -0.5
    return replace(mesh, edge_labels=np.where(inside, GAMMA0, GAMMA1))


# Per-cell and per-vertex loops that the vectorized mesh build and load
# scatters must reproduce bit for bit.


def loop_unit_square_triangles(n, pattern) -> np.ndarray:
    """build_unit_square's triangles, cell by cell, row by row from the bottom."""
    def nid(ix, iy):
        return iy * (n + 1) + ix

    triangles = []
    for iy in range(n):
        for ix in range(n):
            a, b = nid(ix, iy), nid(ix + 1, iy)
            c, d = nid(ix + 1, iy + 1), nid(ix, iy + 1)
            if pattern == "right" or (pattern == "alternating" and (ix + iy) % 2 == 0):
                triangles += [(a, b, c), (a, c, d)]
            else:
                triangles += [(a, b, d), (b, c, d)]
    return np.asarray(triangles, dtype=np.int64)


def loop_load_vector(geom, bd) -> np.ndarray:
    """load_vector by unbuffered per-vertex, then per-endpoint accumulation."""
    mesh = geom.mesh
    out = np.zeros(geom.n_dofs)
    share = geom.areas / 3.0
    for i in range(3):
        for c in (0, 1):
            np.add.at(out, 2 * mesh.triangles[:, i] + c, share * bd.f[c])
    on_gamma1 = mesh.edge_labels == GAMMA1
    half = 0.5 * mesh.edge_lengths()[on_gamma1]
    for end in (0, 1):
        for c in (0, 1):
            np.add.at(out, 2 * mesh.edges[on_gamma1, end] + c, half * bd.q[c])
    return out


def loop_tensor_load(geom, W) -> np.ndarray:
    """tensor_load by unbuffered accumulation in (element, component) order:
    per element, per component c, each basis strain's c entry times
    W_c * area * weight_c, added to its dof."""
    B, dofs = element_strain_basis(geom.mesh)
    w = np.asarray(W, dtype=float) * geom.areas[:, None] * np.array([1.0, 1.0, 2.0])
    out = np.zeros(geom.n_dofs)
    np.add.at(out, np.broadcast_to(dofs[:, None, :], B.transpose(0, 2, 1).shape),
              B.transpose(0, 2, 1) * w[:, :, None])
    return out


def element_tensor_load(geom, W) -> np.ndarray:
    """tensor_load by each element's six entries area * (W : B_d), summed
    over the weighted components first."""
    B, dofs = element_strain_basis(geom.mesh)
    contrib = np.einsum("ea,a,eda->ed", np.asarray(W, dtype=float), np.array([1.0, 1.0, 2.0]),
                        B) * geom.areas[:, None]
    out = np.zeros(geom.n_dofs)
    np.add.at(out, dofs, contrib)
    return out
