"""The compiled CSR products: the strain operator S of a mesh in both
directions, the stiffness matvec, and the loader of scipy's extensions.

Meshes are drawn from the three structured patterns and from unstructured
Delaunay meshes, whose nodes have differing stencils.
"""

import numpy as np
import pytest
import scipy
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from viscofem import csr
from viscofem.assembly import assemble_stiffness, tensor_load
from viscofem.csr import load_extension
from viscofem.diagnostics import psi_inner
from viscofem.fields import AffineMap, build_dirichlet, strain_field
from viscofem.mesh import PATTERNS, MeshGeometry, build_unit_square, classify_boundary
from viscofem.tensors import Material, StepParams, isotropic

from oracles import NO_DIRICHLET, as_csr, delaunay_mesh, einsum_strain_field

UNIT = Material(lam=1.0, mu=1.0, eta=1.0, alpha=0.5)

MESHES = st.one_of(
    st.builds(build_unit_square, st.integers(1, 6), st.sampled_from(PATTERNS)),
    st.builds(delaunay_mesh, st.integers(3, 6), st.integers(0, 50)),
)


def fields(draw, geom):
    """A displacement (n_nodes, 2) and a tensor field (m, 3), seeded."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (rng.standard_normal((geom.mesh.n_nodes, 2)),
            rng.standard_normal((geom.mesh.n_triangles, 3)))


class TestStrainOperator:
    @settings(max_examples=40, deadline=None)
    @given(mesh=MESHES, data=st.data())
    def test_tensor_load_is_the_adjoint_of_strain(self, mesh, data):
        # (W, e[u]) two ways: the load vector against u, and the inner
        # product of W with the strain field of u; both round sums whose
        # magnitudes add up to |w|^T |S| |u|, in at most about 40 steps
        geom = MeshGeometry(mesh)
        u, W = fields(data.draw, geom)
        load = tensor_load(geom, W)
        e = strain_field(geom, u)
        scale = np.abs(W.ravel() * geom.inner_weights) @ abs(as_csr(geom.S)) @ np.abs(u.ravel())
        assert abs(load @ u.ravel() - psi_inner(geom, W, e)) <= 64 * np.finfo(float).eps * scale

    @settings(max_examples=40, deadline=None)
    @given(mesh=MESHES, data=st.data())
    def test_strain_field_is_bitwise_the_einsum(self, mesh, data):
        geom = MeshGeometry(mesh)
        u, _ = fields(data.draw, geom)
        assert strain_field(geom, u).tobytes() == einsum_strain_field(geom, u).tobytes()

    @settings(max_examples=20, deadline=None)
    @given(mesh=MESHES, data=st.data())
    def test_products_match_the_dense_operator(self, mesh, data):
        geom = MeshGeometry(mesh)
        u, W = fields(data.draw, geom)
        S = as_csr(geom.S).toarray()
        assert_allclose(strain_field(geom, u).ravel(), S @ u.ravel(), rtol=1e-13, atol=1e-13)
        w = W.ravel() * geom.inner_weights
        assert_allclose(tensor_load(geom, W), S.T @ w, rtol=1e-13,
                        atol=1e-13 * np.abs(S).max() * np.abs(w).max())

    @pytest.mark.parametrize("mesh", [build_unit_square(4, "left"), delaunay_mesh(n=5, seed=2)],
                             ids=["left", "delaunay"])
    def test_strided_and_integer_inputs(self, mesh):
        geom = MeshGeometry(mesh)
        rng = np.random.default_rng(8)
        u_wide = rng.standard_normal((mesh.n_nodes, 4))
        W_wide = rng.standard_normal((mesh.n_triangles, 6))
        u, W = u_wide[:, ::2], W_wide[:, 1::2]
        assert not u.flags.c_contiguous and not W.flags.c_contiguous
        assert np.array_equal(strain_field(geom, u), strain_field(geom, u.copy()))
        assert np.array_equal(tensor_load(geom, W), tensor_load(geom, W.copy()))
        u_int = rng.integers(-5, 5, (mesh.n_nodes, 2))
        W_int = rng.integers(-5, 5, (mesh.n_triangles, 3))
        assert np.array_equal(strain_field(geom, u_int), strain_field(geom, u_int.astype(float)))
        assert np.array_equal(tensor_load(geom, W_int), tensor_load(geom, W_int.astype(float)))

    def test_wrong_lengths_rejected(self):
        geom = MeshGeometry(build_unit_square(2))
        with pytest.raises(ValueError, match="18 columns"):
            strain_field(geom, np.zeros(16))
        with pytest.raises(ValueError, match="24 rows"):
            geom.S.rmatvec(np.zeros(25))


    @pytest.mark.parametrize("indptr, indices", [([0, 2], [0, 3]), ([0, 2], [-1, 1]),
                                                  ([0, 3], [0, 1]), ([1, 2], [0, 1]),
                                                  ([0, 2, 1], [0, 1])])
    def test_malformed_arrays_rejected(self, indptr, indices):
        # an index past the columns, a negative one, a row past the entries,
        # a first row not at 0, rows out of order
        with pytest.raises(ValueError, match="malformed CSR arrays for 3 columns"):
            csr.CSR(np.array(indptr, dtype=np.int32), np.array(indices, dtype=np.int32),
                    np.ones(len(indices)), 3)


class TestStiffnessMatvec:
    @settings(max_examples=20, deadline=None)
    @given(mesh=MESHES, data=st.data())
    def test_matches_dense_oracle(self, mesh, data):
        geom = MeshGeometry(mesh)
        x, _ = fields(data.draw, geom)
        x = x.ravel()
        stiffness = assemble_stiffness(geom, NO_DIRICHLET)
        s = StepParams.from_material(UNIT, tau=0.01)
        for M in (s.C, s.condensed):
            system = stiffness.system(M)
            A = as_csr(system).toarray()
            assert_allclose(system.matvec(x), A @ x, rtol=1e-13,
                            atol=1e-13 * np.abs(A).max() * np.abs(x).max())
            assert system.norm_inf == pytest.approx(np.abs(A).sum(axis=1).max(), rel=1e-14)

    def test_constrained_system_strided_and_integer_inputs(self):
        mesh = classify_boundary(build_unit_square(5), "sides")
        geom = MeshGeometry(mesh)
        ds = build_dirichlet(mesh, AffineMap([[1.0, 0.0], [0.0, 0.0]], [0.0, 0.0]))
        system = assemble_stiffness(geom, ds).system(isotropic(UNIT.lam, UNIT.mu))
        x = np.random.default_rng(9).standard_normal(2 * system.n)[::2]
        assert np.array_equal(system.matvec(x), system.matvec(x.copy()))
        k = np.arange(system.n) % 7 - 3
        assert np.array_equal(system.matvec(k), system.matvec(k.astype(float)))
        with pytest.raises(ValueError, match=f"{system.n} columns"):
            system.matvec(np.zeros(system.n + 1))


class TestExtensionLoader:
    # a missing module: test_solver.py::TestSuperLULoader
    @pytest.mark.parametrize("kernel", ["csr_matvec", "csc_matvec"])
    def test_missing_kernel_names_scipy_version(self, kernel):
        wanted = [k if k != kernel else f"{k}_absent" for k in ("csr_matvec", "csc_matvec")]
        with pytest.raises(ImportError, match=f"scipy {scipy.__version__} has no {kernel}_absent$"):
            load_extension(csr._SPARSETOOLS, *wanted)
