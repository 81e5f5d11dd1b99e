"""Sparse LU factor and substitution for the reduced SPD systems.

Every system a run solves is a constrained stiffness matrix, a SparseSPD
built by Stiffness.system as lam * K_tr + 2*mu * K_dev on one CSR pattern
(symmetric positive definite). It is constant in time, so it is factored
once and every solve is two triangular substitutions:

    factorize(system)       SuperLU gstrf (X. S. Li, ACM TOMS 31(3), 2005)
                            with the MMD ordering of A^T + A, no row
                            pivoting (DiagPivotThresh 0, SymmetricMode):
                            the diagonal pivots of an SPD matrix are
                            positive. The data is bitwise symmetric, so the
                            CSR arrays are also the CSC arrays gstrf takes.
    solve_spd(system, b, lu)
                            x = LU \\ b, and only if that x is not
                            accepted, one step of iterative refinement,
                            x += LU \\ (b - A x).

A solve is accepted by the normwise backward error of what it returns
(Rigal and Gaches; Higham, Accuracy and Stability of Numerical
Algorithms, ch. 7), in the infinity norm:

    eta = ||b - A x|| / (||A|| ||x|| + ||b||) <= _TOL.

Measured on the presets (example1 and example2, plain and condensed
systems, n = 40 and 160, tau = 0.01 and 1e-4, seeded tensor loads), eta
was 1.4e-16 to 6.8e-16 after the first substitution and 5.4e-17 to
1.6e-16 after a refinement step. On every step of the three perfbench
runs (example1 at n = 40, example2 at n = 16 and 160) the first
substitution gave eta = 6.9e-17 to 4.4e-16 (largest per run 2.8e-16,
2.9e-16 and 4.4e-16). So x is refined only when the first substitution
fails the test (Higham, ch. 12), which none of those solves did, and is
then tested again. _TOL = 1e-14 leaves a margin of about fifteen over the
first substitution and fails any solve that is not backward stable,
including every non-finite one. It is not a test of singularity: a nearly singular matrix
gives a small eta with a huge x, which is why Simulation rejects a mesh
with a part the Dirichlet nodes do not hold before anything is factored.
An exactly singular matrix stops gstrf, and factorize raises SolverError.

The SuperLU extension is loaded from its file, not through
scipy.sparse.linalg, which imports scipy.sparse and scipy.linalg, and no
module of the package imports scipy.sparse. Peak RSS of the benchmark's
creep-verify / relax-long / setup-large workloads with this solver
(scipy 1.17.1, Python 3.11, 2-core VM, single 5 s runs), by import route:

    import scipy.sparse.linalg (as splu does):  75.9 / 74.6 / 181.2 MiB
    the extension by file, scipy.sparse kept:   67.3 / 66.2 / 171.7 MiB
    the extension by file, no scipy.sparse:     57.2 / 53.7 / 156.9 MiB

against 62.5 / 63.9 / 174.5 MiB (medians of ten 30 s runs) for the
Jacobi-PCG solver on scipy.sparse matrices that this one replaced.

The extension is private scipy API; the loader raises ImportError naming
the installed scipy version when it is missing or has no gstrf.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass

import numpy as np

from .assembly import SparseSPD

_TOL = 1e-14
_OPTIONS = {"ColPerm": "MMD_AT_PLUS_A", "DiagPivotThresh": 0.0, "SymmetricMode": True}
_SUPERLU = "scipy.sparse.linalg._dsolve._superlu"


class SolverError(RuntimeError):
    """Raised when a displacement system cannot be factored or solved."""


def _scipy_version() -> str:
    from importlib.metadata import PackageNotFoundError, version

    try:
        return version("scipy")
    except PackageNotFoundError:
        return "not installed"


def _load_superlu():
    """SciPy's SuperLU extension, loaded by its file location."""
    scipy = importlib.util.find_spec("scipy")
    where = [os.path.join(d, "sparse", "linalg", "_dsolve")
             for d in (scipy.submodule_search_locations if scipy else ())]
    spec = importlib.machinery.PathFinder.find_spec(_SUPERLU, where)
    if spec is None:
        raise ImportError(f"no SuperLU extension {_SUPERLU} in scipy {_scipy_version()}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if not hasattr(module, "gstrf"):
        raise ImportError(f"the SuperLU extension of scipy {_scipy_version()} has no gstrf")
    return module


_superlu = _load_superlu()


@dataclass
class SolveReport:
    converged: bool         # backward_error <= _TOL
    iterations: int         # substitution passes: 1 or 2, 0 for a zero right-hand side
    residual: float         # ||b - A x||_2 of the returned x
    backward_error: float   # eta of the module docstring


def factorize(system: SparseSPD):
    """SuperLU factor of system's matrix; SolverError if it is exactly singular."""
    try:
        return _superlu.gstrf(system.n, len(system.data), system.data, system.indices,
                              system.indptr, csc_construct_func=None, options=_OPTIONS)
    except RuntimeError as exc:
        raise SolverError(f"cannot factor the {system.n}-dof system: {exc}") from None


def solve_spd(system: SparseSPD, b, lu) -> tuple[np.ndarray, SolveReport]:
    """Solve system @ x = b with lu, the factor of system, refining once if
    the first substitution is not accepted.

    Returns (x, SolveReport); raising on a failed solve is the caller's call.
    """
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    if system.n != n:
        raise ValueError(f"matrix shape {(system.n, system.n)} does not match rhs length {n}")
    norm_b = np.abs(b).max()
    if norm_b == 0.0:
        return np.zeros(n), SolveReport(True, 0, 0.0, 0.0)

    x = lu.solve(b)
    r, backward_error = _residual(system, b, x, norm_b)
    passes = 1
    if backward_error > _TOL:
        x += lu.solve(r)
        r, backward_error = _residual(system, b, x, norm_b)
        passes = 2
    return x, SolveReport(backward_error <= _TOL, passes, float(np.linalg.norm(r)), backward_error)


def _residual(system: SparseSPD, b, x, norm_b: float) -> tuple[np.ndarray, float]:
    """b - A x and the normwise backward error of x (module docstring)."""
    r = b - system.matvec(x)
    return r, float(np.abs(r).max() / (system.norm_inf * np.abs(x).max() + norm_b))
