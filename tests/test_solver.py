"""Conjugate gradient solver tests against dense reference solves."""

import numpy as np
import pytest
import scipy.sparse as sparse
from numpy.testing import assert_allclose

from viscofem.assembly import SparseSPD, assemble_stiffness, load_vector
from viscofem.fields import AffineMap, BoundaryData, build_dirichlet
from viscofem.mesh import GAMMA0, MeshGeometry, build_unit_square, classify_boundary
from viscofem.solver import SolveReport, solve_spd
from viscofem.tensors import Material, StepParams

from oracles import dense_spd_solve, interpolate
from test_mesh import sides, top

UNIT = Material(lam=1.0, mu=1.0, eta=1.0, alpha=0.0)


def reduced_patch_system(n=3, predicate=None):
    mesh = classify_boundary(build_unit_square(n), predicate or (lambda p: GAMMA0))
    geom = MeshGeometry(mesh)
    g = AffineMap([[1.0, 0.0], [0.0, 0.0]], [0.0, 0.0])
    ds = build_dirichlet(mesh, g)
    bd = BoundaryData(g=g, q=[0.0, 0.0], f=[0.0, 0.0])
    system = assemble_stiffness(geom, ds).system(UNIT)
    return mesh, system, system.reduce_rhs(load_vector(geom, bd)), g


def spd(A) -> SparseSPD:
    """An unconstrained SparseSPD around a small matrix."""
    A = sparse.csr_matrix(A)
    return SparseSPD(A, np.empty(0, dtype=np.int64), np.empty(0), np.zeros(A.shape[0]))


class TestSmallSystems:
    def test_two_by_two_hand_value(self):
        A = np.array([[4.0, 1.0], [1.0, 3.0]])
        b = np.array([1.0, 2.0])
        x, report = solve_spd(spd(A), b)
        assert report.converged
        assert_allclose(x, [1.0 / 11.0, 7.0 / 11.0], rtol=1e-12)
        # CG on a 2x2 SPD system terminates within two iterations
        assert report.iterations <= 2

    def test_identity(self):
        rng = np.random.default_rng(41)
        b = rng.standard_normal(10)
        x, report = solve_spd(spd(sparse.identity(10)), b)
        assert report.converged and report.iterations <= 1
        assert_allclose(x, b, rtol=1e-13)

    def test_zero_rhs_short_circuit(self):
        x, report = solve_spd(spd(sparse.identity(5)), np.zeros(5))
        assert report.converged and report.iterations == 0
        assert_allclose(x, 0.0, atol=0)
        assert report.residual == 0.0

    def test_random_spd_matches_dense(self):
        rng = np.random.default_rng(42)
        for n in (5, 20, 80):
            M = rng.standard_normal((n, n))
            A = M @ M.T + n * np.eye(n)
            b = rng.standard_normal(n)
            x, report = solve_spd(spd(A), b)
            assert report.converged
            assert_allclose(x, dense_spd_solve(A, b), rtol=1e-9, atol=1e-11)


class TestFEMSystems:
    def test_patch_system_matches_dense_oracle(self):
        mesh, reduced, rhs, g = reduced_patch_system(n=3)
        x, report = solve_spd(reduced, rhs)
        assert report.converged
        oracle = dense_spd_solve(reduced.matrix.toarray(), rhs)
        assert_allclose(x, oracle, atol=1e-11)
        assert_allclose(x, interpolate(mesh, g).ravel(), atol=1e-10)

    def test_mixed_boundary_system_matches_dense_oracle(self):
        mesh, reduced, rhs, _ = reduced_patch_system(n=4, predicate=sides)
        x, report = solve_spd(reduced, rhs)
        assert report.converged
        assert report.residual <= 1e-12 * np.linalg.norm(rhs)
        assert_allclose(x, dense_spd_solve(reduced.matrix.toarray(), rhs), atol=1e-10)

    def test_condensed_system_solves(self):
        mesh = classify_boundary(build_unit_square(6), top)
        geom = MeshGeometry(mesh)
        s = StepParams.from_material(UNIT, tau=0.01)
        ds = build_dirichlet(mesh, AffineMap.zero())
        bd = BoundaryData(g=AffineMap.zero(), q=[0.0, 0.0], f=[0.0, -1.0])
        reduced = assemble_stiffness(geom, ds).system(s.condensed)
        rhs = reduced.reduce_rhs(load_vector(geom, bd))
        x, report = solve_spd(reduced, rhs)
        assert report.converged
        assert_allclose(x, dense_spd_solve(reduced.matrix.toarray(), rhs), atol=1e-10)

    def test_warm_start_converges_faster(self):
        _, reduced, rhs, _ = reduced_patch_system(n=6, predicate=sides)
        x_cold, cold = solve_spd(reduced, rhs)
        _, warm = solve_spd(reduced, rhs, x0=x_cold)
        assert warm.iterations <= 1
        assert warm.converged


class TestSettingsAndFailure:
    def test_non_convergence_reports_best_iterate(self):
        # symmetric with a positive diagonal but indefinite (eigenvalues 3
        # and -1): CG meets p.Ap <= 0 and stops with the current iterate
        A = spd(np.array([[1.0, 2.0], [2.0, 1.0]]))
        b = np.array([1.0, -1.0])
        x, report = solve_spd(A, b)
        assert report.converged is False
        assert report.residual == pytest.approx(np.linalg.norm(b - A.matrix @ x))
        assert report.residual > 0.0

    def test_non_finite_rhs_stops_at_once(self):
        _, reduced, rhs, _ = reduced_patch_system(n=3, predicate=sides)
        rhs[0] = np.nan
        _, report = solve_spd(reduced, rhs)
        assert report.converged is False
        assert report.iterations == 0

    def test_non_positive_diagonal_rejected(self):
        with pytest.raises(ValueError, match="positive diagonal"):
            solve_spd(spd(np.diag([1.0, 0.0])), np.ones(2))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            solve_spd(spd(sparse.identity(3)), np.ones(4))

    def test_report_fields(self):
        _, report = solve_spd(spd(sparse.identity(2)), np.array([1.0, 0.0]))
        assert isinstance(report, SolveReport)
        assert report.residual <= 1e-12
