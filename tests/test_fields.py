"""Field and boundary-data tests: exact strains of affine displacements,
Dirichlet closure semantics, data containers."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from viscofem.fields import (
    AffineMap,
    BoundaryData,
    build_dirichlet,
    strain_field,
    zero_tensor_field,
)
from viscofem.mesh import (
    GAMMA0,
    GAMMA1,
    Mesh,
    MeshGeometry,
    build_unit_square,
    classify_boundary,
)

from oracles import homogeneous_data, interpolate, zero_displacement


class TestStrain:
    def test_affine_displacement_has_exact_constant_strain(self):
        # u = A x + b gives strain sym(A) on every element, independent of h
        rng = np.random.default_rng(21)
        mesh = build_unit_square(5, pattern="alternating")
        geom = MeshGeometry(mesh)
        for _ in range(20):
            A = rng.standard_normal((2, 2))
            b = rng.standard_normal(2)
            u = interpolate(mesh, AffineMap(A, b))
            expected = [A[0, 0], A[1, 1], 0.5 * (A[0, 1] + A[1, 0])]
            e = strain_field(geom, u)
            assert_allclose(e, np.tile(expected, (mesh.n_triangles, 1)), atol=1e-13)

    def test_uniaxial_stretch(self):
        mesh = build_unit_square(3)
        geom = MeshGeometry(mesh)
        u = interpolate(mesh, AffineMap([[1.0, 0.0], [0.0, 0.0]], [0.0, 0.0]))
        assert_allclose(strain_field(geom, u), np.tile([1.0, 0.0, 0.0], (mesh.n_triangles, 1)), atol=1e-14)

    def test_rigid_motions_have_zero_strain(self):
        mesh = build_unit_square(4, pattern="left")
        geom = MeshGeometry(mesh)
        translation = interpolate(mesh, AffineMap.zero()) + np.array([0.3, -0.7])
        rotation = interpolate(mesh, AffineMap([[0.0, -1.0], [1.0, 0.0]], [0.0, 0.0]))
        assert_allclose(strain_field(geom, translation), 0.0, atol=1e-14)
        assert_allclose(strain_field(geom, rotation), 0.0, atol=1e-14)


class TestDirichlet:
    def test_top_closure_node_count(self):
        mesh = classify_boundary(build_unit_square(40), "top")
        ds = build_dirichlet(mesh, AffineMap.zero())
        assert len(ds.nodes) == 41
        assert_allclose(mesh.nodes[ds.nodes, 1], 1.0)
        assert_allclose(ds.values, 0.0)

    def test_sides_closure_node_count(self):
        mesh = classify_boundary(build_unit_square(40), "sides")
        ds = build_dirichlet(mesh, AffineMap.zero())
        assert len(ds.nodes) == 82

    def test_corners_belong_to_closure(self):
        # the four corners sit on both a GAMMA0 and a GAMMA1 edge for `sides`
        mesh = classify_boundary(build_unit_square(4), "sides")
        ds = build_dirichlet(mesh, AffineMap.zero())
        corner_ids = [
            int(np.flatnonzero((mesh.nodes == c).all(axis=1))[0])
            for c in ([0, 0], [1, 0], [0, 1], [1, 1])
        ]
        assert set(corner_ids) <= set(ds.nodes.tolist())

    def test_values_follow_g(self):
        mesh = classify_boundary(build_unit_square(8), "sides")
        g = AffineMap([[1.0, 0.0], [0.0, 0.0]], [0.0, 0.0])
        ds = build_dirichlet(mesh, g)
        assert_allclose(ds.values[:, 0], mesh.nodes[ds.nodes, 0], atol=0)
        assert_allclose(ds.values[:, 1], 0.0, atol=0)

    def test_dof_layout_interleaved(self):
        mesh = classify_boundary(build_unit_square(2), "top")
        ds = build_dirichlet(mesh, AffineMap.zero())
        assert np.array_equal(ds.dofs[0::2], 2 * ds.nodes)
        assert np.array_equal(ds.dofs[1::2], 2 * ds.nodes + 1)
        assert ds.flat_values.shape == (2 * len(ds.nodes),)

    def test_unclassified_mesh_rejected(self):
        with pytest.raises(ValueError, match="GAMMA0"):
            build_dirichlet(build_unit_square(3), AffineMap.zero())

    def test_independent_of_triangle_order(self):
        mesh = classify_boundary(build_unit_square(5), "sides")
        perm = np.random.default_rng(23).permutation(mesh.n_triangles)
        shuffled = Mesh(
            nodes=mesh.nodes,
            triangles=mesh.triangles[perm],
            edges=mesh.edges,
            edge_labels=mesh.edge_labels,
        )
        a = build_dirichlet(mesh, AffineMap.zero())
        b = build_dirichlet(shuffled, AffineMap.zero())
        assert np.array_equal(a.nodes, b.nodes)


class TestData:
    def test_affine_map_coefficient_round_trip(self):
        coeffs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        g = AffineMap.from_coefficients(coeffs)
        assert_allclose(g.coefficients(), coeffs, atol=0)
        assert_allclose(g([1.0, 1.0]), [1 + 2 + 5, 3 + 4 + 6], atol=0)

    def test_affine_map_vectorized_evaluation(self):
        g = AffineMap([[2.0, 0.0], [0.0, -1.0]], [1.0, 0.0])
        pts = np.array([[0.0, 0.0], [1.0, 2.0]])
        assert_allclose(g(pts), [[1.0, 0.0], [3.0, -2.0]], atol=0)

    def test_equality_semantics(self):
        f = np.array([0.0, -1.0])
        a = BoundaryData(g=AffineMap.zero(), q=[0.0, 0.0], f=f)
        b = BoundaryData(g=AffineMap([[0, 0], [0, 0]], (0, 0)), q=np.zeros(2), f=(0.0, -1.0))
        c = BoundaryData(g=AffineMap.zero(), q=[0.0, 0.0], f=[0.0, 0.0])
        assert a == b and hash(a) == hash(b) and a != c
        f[1] = 5.0  # the data holds its own values, not the caller's array
        assert a.f == (0.0, -1.0) and a == b
        assert homogeneous_data() == homogeneous_data()

    def test_zero_fields_shapes(self):
        mesh = build_unit_square(3)
        assert zero_displacement(mesh).shape == (mesh.n_nodes, 2)
        assert zero_tensor_field(mesh).shape == (mesh.n_triangles, 3)

    def test_labels_unused_are_preserved(self):
        mesh = classify_boundary(build_unit_square(2), "top")
        assert set(np.unique(mesh.edge_labels)) == {GAMMA0, GAMMA1}
