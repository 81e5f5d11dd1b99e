"""Assembly tests.

The element matrices are checked against a fully symbolic oracle: sympy
builds the barycentric basis from vertex coordinates, forms strains as 2x2
matrices, applies the operators in matrix form and integrates over the
mapped triangle. Nothing of the package's 3-vector storage or quadrature
shortcuts enters that route. Unconstrained matrices are the systems of a
Stiffness built with the Dirichlet set of no node.
"""

import numpy as np
import pytest
import sympy as sp
from numpy.testing import assert_allclose

from viscofem.assembly import assemble_stiffness, load_vector, tensor_load
from viscofem.fields import AffineMap, BoundaryData, build_dirichlet
from viscofem.mesh import GAMMA0, GAMMA1, Mesh, MeshGeometry, build_unit_square, classify_boundary
from viscofem.tensors import Material, StepParams, isotropic

from oracles import (
    NO_DIRICHLET,
    as_csr,
    delaunay_mesh,
    dense_spd_solve,
    effective_matrix,
    element_strain_basis,
    element_tensor_load,
    interpolate,
    left_arc,
    loop_load_vector,
    loop_tensor_load,
    to_float,
)

UNIT = Material(lam=1.0, mu=1.0, eta=1.0, alpha=0.0)
C_UNIT = isotropic(1.0, 1.0)  # the elasticity of UNIT


def stiffness_matrix(geom, M):
    """Unconstrained stiffness of the isotropic operator with matrix M."""
    return as_csr(assemble_stiffness(geom, NO_DIRICHLET).system(M))


# ---------------------------------------------------------------------------
# symbolic element oracle
# ---------------------------------------------------------------------------


def symbolic_element_matrix(vertices, lam, mu, step=None):
    """6x6 element stiffness by symbolic integration over the triangle.

    step, if given, is (eta, alpha, tau) and selects the condensed operator.
    """
    x, y, xi, zeta = sp.symbols("x y xi zeta")
    p = [sp.Matrix(v) for v in vertices]

    # barycentric basis: affine, value 1 at own vertex, 0 at the others
    basis = []
    for i in range(3):
        a, b, c = sp.symbols(f"a{i} b{i} c{i}")
        lam_i = a * x + b * y + c
        eqs = [
            sp.Eq(lam_i.subs({x: p[j][0], y: p[j][1]}), 1 if i == j else 0) for j in range(3)
        ]
        sol = sp.solve(eqs, [a, b, c])
        basis.append(lam_i.subs(sol))

    def strain(vfield):
        grad = sp.Matrix([[sp.diff(vfield[r], var) for var in (x, y)] for r in range(2)])
        return (grad + grad.T) / 2

    def apply_elasticity(E):
        return lam * E.trace() * sp.eye(2) + 2 * mu * E

    def operator(E):
        # condensed operator from eliminating the tensor variable:
        # R phi = C E + drift  =>  sigma = C(E - phi) = C(E - R^-1 C E) - ...
        # the E-dependent part is C (E - R^-1 C E)
        CE = apply_elasticity(E)
        if step is None:
            return CE
        eta, alpha, tau = step
        beta0 = 2 * mu + sp.Rational(1, 1) * eta / tau + alpha
        beta1 = 2 * lam + beta0
        rinv = (CE - lam / beta1 * CE.trace() * sp.eye(2)) / beta0
        return apply_elasticity(E - rinv)

    # map the reference triangle, jacobian is twice the area
    xm = p[0] + xi * (p[1] - p[0]) + zeta * (p[2] - p[0])
    jac = sp.Abs((p[1] - p[0])[0] * (p[2] - p[0])[1] - (p[1] - p[0])[1] * (p[2] - p[0])[0])

    fields = []
    for i in range(3):
        for c in range(2):
            comp = [sp.S.Zero, sp.S.Zero]
            comp[c] = basis[i]
            fields.append(sp.Matrix(comp))

    strains = [strain(v) for v in fields]
    K = sp.zeros(6, 6)
    for a in range(6):
        Ta = operator(strains[a])
        for b in range(a, 6):
            # full tensor contraction of 2x2 matrices
            integrand = sum(Ta[r, s] * strains[b][r, s] for r in range(2) for s in range(2))
            integrand = integrand.subs({x: xm[0], y: xm[1]}) * jac
            val = sp.integrate(sp.integrate(integrand, (zeta, 0, 1 - xi)), (xi, 0, 1))
            K[a, b] = K[b, a] = val
    return np.array(K.evalf(25).tolist(), dtype=float)


def single_triangle_mesh(vertices):
    return Mesh(
        nodes=np.asarray(vertices, dtype=float),
        triangles=np.array([[0, 1, 2]]),
        edges=np.array([[0, 1], [1, 2], [2, 0]]),
        edge_labels=np.array([GAMMA0, GAMMA1, GAMMA1]),
    )


class TestElementMatrix:
    def test_reference_triangle_elastic(self):
        verts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
        geom = MeshGeometry(single_triangle_mesh(verts))
        A = stiffness_matrix(geom, C_UNIT).toarray()
        K = symbolic_element_matrix(verts, sp.Integer(1), sp.Integer(1))
        assert_allclose(A, K, rtol=1e-13, atol=1e-13)

    def test_skewed_triangle_elastic(self):
        verts = [(0.2, -0.1), (1.3, 0.4), (0.5, 1.7)]
        geom = MeshGeometry(single_triangle_mesh(verts))
        A = stiffness_matrix(geom, isotropic(2.5, 0.7)).toarray()
        K = symbolic_element_matrix(verts, sp.Rational(5, 2), sp.Rational(7, 10))
        assert_allclose(A, K, rtol=1e-12, atol=1e-12)

    def test_reference_triangle_condensed(self):
        verts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
        m = Material(lam=1.0, mu=1.0, eta=1.0, alpha=1.0)
        s = StepParams.from_material(m, tau=0.5)
        geom = MeshGeometry(single_triangle_mesh(verts))
        A = stiffness_matrix(geom, s.condensed).toarray()
        K = symbolic_element_matrix(
            verts, sp.Integer(1), sp.Integer(1), step=(sp.Integer(1), sp.Integer(1), sp.Rational(1, 2))
        )
        assert_allclose(A, K, rtol=1e-12, atol=1e-12)

    def test_condensed_matches_voigt_matrix_route(self):
        # dense assembly from the 3x3 operator matrix, weighted contraction;
        # the unstructured mesh gives interior nodes differing stencils, so
        # a slot that lands on a neighbour's entry shows
        m = Material(lam=1.3, mu=0.8, eta=2.0, alpha=0.5)
        s = StepParams.from_material(m, tau=0.01)
        T = to_float(effective_matrix(m.lam, m.mu, m.eta, m.alpha, s.tau))
        W3 = np.diag([1.0, 1.0, 2.0])
        for mesh in (build_unit_square(3, pattern="alternating"), delaunay_mesh(n=6, seed=1)):
            geom = MeshGeometry(mesh)
            n = geom.n_dofs
            dense = np.zeros((n, n))
            basis, dofs = element_strain_basis(mesh)
            for k in range(mesh.n_triangles):
                B = basis[k]
                Ke = geom.areas[k] * B @ T.T @ W3 @ B.T
                idx = dofs[k]
                dense[np.ix_(idx, idx)] += Ke
            A = stiffness_matrix(geom, s.condensed).toarray()
            assert_allclose(A, dense, rtol=1e-12, atol=1e-12)


class TestStiffnessProperties:
    @pytest.mark.parametrize("pattern", ["right", "alternating", "unstructured"])
    def test_exact_symmetry(self, pattern):
        if pattern == "unstructured":
            mesh = left_arc(delaunay_mesh(n=6, seed=2))
        else:
            mesh = classify_boundary(build_unit_square(5, pattern=pattern), "top")
        geom = MeshGeometry(mesh)
        ds = build_dirichlet(mesh, AffineMap.zero())
        for M in (C_UNIT, StepParams.from_material(UNIT, tau=0.01).condensed):
            for A in (stiffness_matrix(geom, M), as_csr(assemble_stiffness(geom, ds).system(M))):
                assert (A != A.T).nnz == 0
                # roundoff-level entries are not stored, nor exact zeros
                assert np.all(A.data != 0.0)

    def test_rigid_motions_in_kernel(self):
        mesh = build_unit_square(4, pattern="left")
        geom = MeshGeometry(mesh)
        A = stiffness_matrix(geom, C_UNIT)
        translation_x = interpolate(mesh, AffineMap.zero()) + np.array([1.0, 0.0])
        translation_y = interpolate(mesh, AffineMap.zero()) + np.array([0.0, 1.0])
        rotation = interpolate(mesh, AffineMap([[0.0, -1.0], [1.0, 0.0]], [0.0, 0.0]))
        for v in (translation_x, translation_y, rotation):
            assert np.abs(A @ v.ravel()).max() < 1e-12

    def test_positive_semidefinite_with_three_dim_kernel(self):
        mesh = build_unit_square(2)
        geom = MeshGeometry(mesh)
        A = stiffness_matrix(geom, C_UNIT).toarray()
        eigs = np.linalg.eigvalsh(A)
        assert eigs[:3] == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)
        assert np.all(eigs[3:] > 1e-8)


class TestLoads:
    def test_body_force_total(self):
        # sum of the f-load equals f times the mesh area, per component
        mesh = classify_boundary(build_unit_square(6), "top")
        geom = MeshGeometry(mesh)
        bd = BoundaryData(g=AffineMap.zero(), q=[0.0, 0.0], f=[0.4, -1.0])
        rhs = load_vector(geom, bd)
        assert rhs[0::2].sum() == pytest.approx(0.4, rel=1e-13)
        assert rhs[1::2].sum() == pytest.approx(-1.0, rel=1e-13)

    def test_traction_total_on_gamma1(self):
        # top edge Dirichlet, traction acts on the remaining three sides;
        # on the 24-gon every GAMMA1 side is 2 sin(pi / 24) long
        square = classify_boundary(build_unit_square(5), "top")
        polygon = left_arc(delaunay_mesh(n=6, seed=4))
        side = 2.0 * np.sin(np.pi / 24)
        for mesh, length in ((square, 3.0), (polygon, side * np.sum(polygon.edge_labels == GAMMA1))):
            geom = MeshGeometry(mesh)
            bd = BoundaryData(g=AffineMap.zero(), q=[2.0, 1.0], f=[0.0, 0.0])
            rhs = load_vector(geom, bd)
            assert rhs[0::2].sum() == pytest.approx(2.0 * length, rel=1e-13)
            assert rhs[1::2].sum() == pytest.approx(1.0 * length, rel=1e-13)

    def test_scatters_match_accumulation_loops(self):
        # the same sums in the same order: bitwise equal; the tensor load
        # sums in the kernel's (element, component) order, and agrees with
        # the per-element sums of the weighted components to roundoff
        rng = np.random.default_rng(33)
        for mesh in (
            classify_boundary(build_unit_square(5, pattern="right"), "top"),
            classify_boundary(build_unit_square(6), "sides"),
            left_arc(delaunay_mesh(n=6, seed=5)),
        ):
            geom = MeshGeometry(mesh)
            bd = BoundaryData(g=AffineMap.zero(), q=rng.standard_normal(2), f=rng.standard_normal(2))
            assert load_vector(geom, bd).tobytes() == loop_load_vector(geom, bd).tobytes()
            W = rng.standard_normal((mesh.n_triangles, 3))
            load = tensor_load(geom, W)
            assert load.tobytes() == loop_tensor_load(geom, W).tobytes()
            assert_allclose(load, element_tensor_load(geom, W), rtol=0,
                            atol=4 * np.finfo(float).eps * np.abs(load).max())

    def test_load_pairs_exactly_with_affine_fields(self):
        # (f, v) for affine v: exact because the vertex rule integrates P1
        rng = np.random.default_rng(31)
        mesh = classify_boundary(build_unit_square(4), "sides")
        geom = MeshGeometry(mesh)
        f = rng.standard_normal(2)
        bd = BoundaryData(g=AffineMap.zero(), q=[0.0, 0.0], f=f)
        rhs = load_vector(geom, bd)
        A_lin = rng.standard_normal((2, 2))
        b_lin = rng.standard_normal(2)
        v = interpolate(mesh, AffineMap(A_lin, b_lin))
        # integral of f . (A x + b) over the unit square
        centroid = np.array([0.5, 0.5])
        exact = f @ (A_lin @ centroid + b_lin)
        assert rhs @ v.ravel() == pytest.approx(exact, rel=1e-12)

    def test_tensor_load_pairs_with_constant_strain(self):
        # (W, e[v]) for affine v equals area * W : sym(A), any constant W
        rng = np.random.default_rng(32)
        mesh = build_unit_square(3)
        geom = MeshGeometry(mesh)
        W = rng.standard_normal(3)
        field = np.tile(W, (mesh.n_triangles, 1))
        rhs = tensor_load(geom, field)
        A_lin = rng.standard_normal((2, 2))
        v = interpolate(mesh, AffineMap(A_lin, [0.0, 0.0]))
        sym = np.array([A_lin[0, 0], A_lin[1, 1], 0.5 * (A_lin[0, 1] + A_lin[1, 0])])
        exact = W[0] * sym[0] + W[1] * sym[1] + 2.0 * W[2] * sym[2]
        assert rhs @ v.ravel() == pytest.approx(exact, rel=1e-12)


class TestIsotropicOperatorsOnly:
    @pytest.mark.parametrize("entry,value", [((0, 2), 0.5), ((2, 0), 0.5), ((0, 0), 3.5),
                                             ((1, 1), 2.5), ((1, 0), 1.5), ((2, 2), np.nan)])
    def test_non_isotropic_matrix_rejected(self, entry, value):
        # an off-diagonal coupling to xy, M[0, 0] or M[1, 1] not M[0, 1] + M[2, 2],
        # M not symmetric, or not finite
        stiffness = assemble_stiffness(MeshGeometry(build_unit_square(2)), NO_DIRICHLET)
        M = C_UNIT.copy()
        M[entry] = value
        with pytest.raises(ValueError, match="not the matrix of an isotropic operator"):
            stiffness.system(M)

    @pytest.mark.parametrize("M", [np.eye(2), C_UNIT.ravel()])
    def test_wrong_shape_rejected(self, M):
        stiffness = assemble_stiffness(MeshGeometry(build_unit_square(2)), NO_DIRICHLET)
        with pytest.raises(ValueError, match="not the matrix of an isotropic operator"):
            stiffness.system(M)


class TestDirichletElimination:
    def constrained(self, mesh, g=AffineMap.zero()):
        geom = MeshGeometry(mesh)
        ds = build_dirichlet(mesh, g)
        return geom, ds, assemble_stiffness(geom, ds).system(C_UNIT)

    def test_all_constrained_gives_identity(self):
        mesh = classify_boundary(build_unit_square(1, pattern="right"), "all")
        geom, _, system = self.constrained(mesh)
        assert_allclose(as_csr(system).toarray(), np.eye(geom.n_dofs), atol=0)
        assert_allclose(system.reduce_rhs(np.ones(geom.n_dofs)), 0.0, atol=0)

    def test_prescribed_values_enter_solution(self):
        mesh = classify_boundary(build_unit_square(2), "sides")
        geom, ds, system = self.constrained(mesh, AffineMap([[1.0, 0.0], [0.0, 0.0]], [0.0, 0.0]))
        x = dense_spd_solve(as_csr(system).toarray(), system.reduce_rhs(np.zeros(geom.n_dofs)))
        assert_allclose(x[ds.dofs], ds.flat_values, atol=1e-13)

    def test_reduced_matrix_spd_and_symmetric(self):
        _, _, system = self.constrained(classify_boundary(build_unit_square(3), "top"))
        dense = as_csr(system).toarray()
        assert_allclose(dense, dense.T, atol=0)
        assert np.linalg.eigvalsh(dense).min() > 0.0

    def test_rows_and_columns_cleared(self):
        geom, ds, system = self.constrained(classify_boundary(build_unit_square(2), "top"))
        dense = as_csr(system).toarray()
        free = np.setdiff1d(np.arange(geom.n_dofs), ds.dofs)
        assert_allclose(dense[np.ix_(ds.dofs, free)], 0.0, atol=0)
        assert_allclose(dense[np.ix_(free, ds.dofs)], 0.0, atol=0)
        assert_allclose(dense[ds.dofs, ds.dofs], 1.0, atol=0)
        # the free block is the unconstrained matrix's
        full = stiffness_matrix(geom, C_UNIT).toarray()
        assert_allclose(dense[np.ix_(free, free)], full[np.ix_(free, free)], atol=0)

    def test_column_action_moves_lift_to_rhs(self):
        rng = np.random.default_rng(34)
        mesh = classify_boundary(build_unit_square(2), "sides")
        g = AffineMap([[0.5, 0.0], [0.0, -0.2]], [0.1, 0.0])
        geom, ds, system = self.constrained(mesh, g)
        raw = rng.standard_normal(geom.n_dofs)
        kept = raw.copy()
        rhs = system.reduce_rhs(raw)
        lift = np.zeros(geom.n_dofs)
        lift[ds.dofs] = ds.flat_values
        free = np.setdiff1d(np.arange(geom.n_dofs), ds.dofs)
        expected = raw[free] - (stiffness_matrix(geom, C_UNIT) @ lift)[free]
        assert_allclose(rhs[free], expected, atol=0)
        assert_allclose(rhs[ds.dofs], ds.flat_values, atol=0)
        # the load handed in is left as it was
        assert_allclose(raw, kept, atol=0)

    def test_patch_solution_matches_dense_oracle(self):
        # full Dirichlet with affine data reproduces the affine field exactly
        mesh = classify_boundary(build_unit_square(3), "all")
        g = AffineMap([[1.0, 0.0], [0.0, 0.0]], [0.0, 0.0])
        geom, _, system = self.constrained(mesh, g)
        bd = BoundaryData(g=g, q=[0.0, 0.0], f=[0.0, 0.0])
        x = dense_spd_solve(as_csr(system).toarray(), system.reduce_rhs(load_vector(geom, bd)))
        expected = interpolate(mesh, g).ravel()
        assert_allclose(x, expected, atol=1e-13)
