"""Sparse LU solver tests against dense reference solves."""

import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
import scipy
import scipy.sparse as sparse
from numpy.testing import assert_allclose

from viscofem.assembly import SparseSPD, assemble_stiffness, load_vector
from viscofem.fields import AffineMap, BoundaryData, build_dirichlet
from viscofem.mesh import MeshGeometry, build_unit_square, classify_boundary
from viscofem import solver
from viscofem.csr import _SPARSETOOLS, load_extension
from viscofem.solver import SolveReport, SolverError, factorize, solve_spd
from viscofem.tensors import Material, StepParams

from oracles import as_csr, dense_spd_solve, interpolate

UNIT = Material(lam=1.0, mu=1.0, eta=1.0, alpha=0.0)


def reduced_patch_system(n=3, gamma0="all"):
    mesh = classify_boundary(build_unit_square(n), gamma0)
    geom = MeshGeometry(mesh)
    g = AffineMap([[1.0, 0.0], [0.0, 0.0]], [0.0, 0.0])
    ds = build_dirichlet(mesh, g)
    bd = BoundaryData(g=g, q=[0.0, 0.0], f=[0.0, 0.0])
    system = assemble_stiffness(geom, ds).system(UNIT)
    return mesh, system, system.reduce_rhs(load_vector(geom, bd)), g


def spd(A) -> SparseSPD:
    """An unconstrained SparseSPD around a small symmetric matrix."""
    A = sparse.csr_matrix(A)
    return SparseSPD(A.indptr.astype(np.int32), A.indices.astype(np.int32), A.data, A.shape[1],
                     np.empty(0, dtype=np.int64), np.empty(0), np.zeros(A.shape[0]))


def solve(system, b):
    return solve_spd(system, b, factorize(system))


class TestSmallSystems:
    def test_two_by_two_hand_value(self):
        A = np.array([[4.0, 1.0], [1.0, 3.0]])
        b = np.array([1.0, 2.0])
        x, report = solve(spd(A), b)
        assert report.converged
        assert_allclose(x, [1.0 / 11.0, 7.0 / 11.0], rtol=1e-12)
        # the first pass, the direct solve, is accepted
        assert report.iterations == 1

    def test_identity(self):
        rng = np.random.default_rng(41)
        b = rng.standard_normal(10)
        x, report = solve(spd(sparse.identity(10)), b)
        assert report.converged
        assert_allclose(x, b, rtol=1e-13)

    def test_zero_rhs_short_circuit(self):
        x, report = solve(spd(sparse.identity(5)), np.zeros(5))
        assert report.converged and report.iterations == 0
        assert_allclose(x, 0.0, atol=0)
        assert report.residual == 0.0 and report.backward_error == 0.0

    def test_random_spd_matches_dense(self):
        rng = np.random.default_rng(42)
        for n in (5, 20, 80):
            M = rng.standard_normal((n, n))
            A = M @ M.T + n * np.eye(n)
            b = rng.standard_normal(n)
            x, report = solve(spd(A), b)
            assert report.converged
            assert_allclose(x, dense_spd_solve(A, b), rtol=1e-9, atol=1e-11)


class TestFEMSystems:
    def test_patch_system_matches_dense_oracle(self):
        mesh, reduced, rhs, g = reduced_patch_system(n=3)
        x, report = solve(reduced, rhs)
        assert report.converged
        oracle = dense_spd_solve(as_csr(reduced).toarray(), rhs)
        assert_allclose(x, oracle, atol=1e-11)
        assert_allclose(x, interpolate(mesh, g).ravel(), atol=1e-10)

    def test_mixed_boundary_system_matches_dense_oracle(self):
        mesh, reduced, rhs, _ = reduced_patch_system(n=4, gamma0="sides")
        x, report = solve(reduced, rhs)
        assert report.converged
        assert report.residual <= 1e-12 * np.linalg.norm(rhs)
        assert_allclose(x, dense_spd_solve(as_csr(reduced).toarray(), rhs), atol=1e-10)

    def test_condensed_system_solves(self):
        mesh = classify_boundary(build_unit_square(6), "top")
        geom = MeshGeometry(mesh)
        s = StepParams.from_material(UNIT, tau=0.01)
        ds = build_dirichlet(mesh, AffineMap.zero())
        bd = BoundaryData(g=AffineMap.zero(), q=[0.0, 0.0], f=[0.0, -1.0])
        reduced = assemble_stiffness(geom, ds).system(s.condensed)
        rhs = reduced.reduce_rhs(load_vector(geom, bd))
        x, report = solve(reduced, rhs)
        assert report.converged
        assert_allclose(x, dense_spd_solve(as_csr(reduced).toarray(), rhs), atol=1e-10)


class TestSettingsAndFailure:
    def test_non_finite_rhs_stops_at_once(self):
        _, reduced, rhs, _ = reduced_patch_system(n=3, gamma0="sides")
        rhs[0] = np.nan
        _, report = solve(reduced, rhs)
        assert report.converged is False and report.iterations == 1
        assert np.isnan(report.backward_error)

    @pytest.mark.parametrize("A", [np.diag([1.0, 0.0]), np.ones((2, 2))])
    def test_singular_matrix_raises(self, A):
        # an empty column, and a zero pivot after one elimination step
        with pytest.raises(SolverError, match="singular"):
            factorize(spd(A))

    def test_shape_mismatch_rejected(self):
        system = spd(sparse.identity(3))
        with pytest.raises(ValueError, match="shape"):
            solve_spd(system, np.ones(4), factorize(system))

    def test_report_fields(self):
        _, report = solve(spd(sparse.identity(2)), np.array([1.0, 0.0]))
        assert isinstance(report, SolveReport)
        assert report.residual <= 1e-12
        assert report.iterations == 1
        assert 0.0 <= report.backward_error <= 1e-14

    def test_inexact_factor_is_refined(self):
        # the factor of (1 + 1e-9) A leaves a backward error near 1e-9 after
        # the first pass; the second, one CG step, brings it under _TOL
        _, system, rhs, _ = reduced_patch_system(n=4, gamma0="sides")
        lu = factorize(replace(system, data=(1.0 + 1e-9) * system.data))
        x, report = solve_spd(system, rhs, lu)
        assert report.iterations == 2
        assert report.converged
        assert report.backward_error <= 1e-14
        assert_allclose(x, dense_spd_solve(as_csr(system).toarray(), rhs), atol=1e-10)


def plain_and_condensed(m, tau, n):
    """The plain and condensed systems of m on an n x n square held on its sides."""
    mesh = classify_boundary(build_unit_square(n), "sides")
    geom = MeshGeometry(mesh)
    g = AffineMap([[1.0, 0.0], [0.0, 0.0]], [0.0, 0.0])
    stiffness = assemble_stiffness(geom, build_dirichlet(mesh, g))
    plain = stiffness.system(m)
    rhs = plain.reduce_rhs(load_vector(geom, BoundaryData(g=g, q=[0.0, 0.0], f=[0.0, -1.0])))
    return plain, stiffness.system(StepParams.from_material(m, tau).condensed), rhs


class TestPreconditionedCG:
    def test_plain_system_on_condensed_factor(self):
        # per-mode ratios 1 + c / (eta/tau + alpha) <= 1.04: a few passes
        plain, condensed, rhs = plain_and_condensed(UNIT, 0.01, 6)
        x, report = solve_spd(plain, rhs, factorize(condensed))
        assert report.converged and 2 <= report.iterations <= 8
        assert_allclose(x, dense_spd_solve(as_csr(plain).toarray(), rhs), rtol=1e-12,
                        atol=1e-12)

    def test_stops_at_the_pass_cap(self):
        # ratios up to 1 + 2 (lam + mu) / (eta/tau) = 2021 need 58 passes
        m = Material(lam=100.0, mu=1.0, eta=1.0, alpha=0.0)
        plain, condensed, rhs = plain_and_condensed(m, 10.0, 16)
        _, report = solve_spd(plain, rhs, factorize(condensed))
        assert report.converged is False and report.iterations == solver._MAX_PASSES


class TestSuperLULoader:
    def test_missing_extension_names_scipy_version(self):
        with pytest.raises(ImportError, match=f"_absent in scipy {scipy.__version__}"):
            load_extension("scipy.sparse.linalg._dsolve._absent", "gstrf")

    def test_run_imports_neither_scipy_sparse_nor_scipy_linalg(self):
        # the memory budget of the package: the SuperLU and sparsetools
        # extensions are the only scipy.sparse modules a run loads
        code = (
            "import sys\n"
            "from dataclasses import replace\n"
            "from viscofem import Simulation, preset_config\n"
            "cfg = preset_config('example1')\n"
            "Simulation(replace(cfg, mesh=replace(cfg.mesh, n=2), t_end=0.02)).run()\n"
            "print(' '.join(sorted(sys.modules)))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        loaded = proc.stdout.split()
        assert "viscofem.solver" in loaded
        assert [m for m in loaded if m.startswith("scipy.linalg")] == []
        assert [m for m in loaded if m.startswith("scipy.sparse")] == sorted([solver._SUPERLU, _SPARSETOOLS])
