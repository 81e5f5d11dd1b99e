"""Sparse LU factor and substitution for the reduced SPD systems.

Every system a run solves is a constrained stiffness matrix, a SparseSPD
built by Stiffness.system as lam * K_tr + 2*mu * K_dev on one CSR pattern
(symmetric positive definite). It is constant in time, so it is factored
once, and a solve is passes of two triangular substitutions each:

    factorize(system)       SuperLU gstrf (X. S. Li, ACM TOMS 31(3), 2005)
                            with the MMD ordering of A^T + A, no row
                            pivoting (DiagPivotThresh 0, SymmetricMode):
                            the diagonal pivots of an SPD matrix are
                            positive. The data is bitwise symmetric, so the
                            CSR arrays are also the CSC arrays gstrf takes.
    solve_spd(system, b, lu)
                            conjugate gradients on system, preconditioned
                            with lu (Golub and Van Loan, Matrix
                            Computations, 4th ed., alg. 11.5.1), from
                            x = LU \\ b. A pass is one substitution, so when
                            lu is the factor of system itself the first
                            pass is the direct solve; at most _MAX_PASSES.
                            Each pass computes its residual b - A x afresh,
                            for its test and as the next CG residual.

Each pass is tested by the normwise backward error of its x (Rigal and
Gaches; Higham, Accuracy and Stability of Numerical Algorithms, ch. 7), in
the infinity norm, and the first x that passes is returned:

    eta = ||b - A x|| / (||A|| ||x|| + ||b||) <= _TOL.

With lu the factor of system, measured on the presets (example1 and
example2, plain and condensed systems, n = 40 and 160, tau = 0.01 and
1e-4, seeded tensor loads), eta was 1.5e-16 to 5.6e-16 after the first
pass and 5.8e-17 to 1.5e-16 after one step of iterative refinement, which
the second pass is up to CG's step length. On every step of the three
perfbench runs (example1 at n = 40, example2 at n = 16 and 160) the first
pass gave eta = 6.7e-17 to 4.6e-16 (largest per run 2.6e-16, 3.3e-16 and
4.6e-16), with the residual from the compiled matvec of csr. So a
direct solve is one pass, and a second runs only when the first fails the
test (Higham, ch. 12). _TOL = 1e-14 leaves a margin of about eighteen
over the first pass and fails any solve that is not backward stable,
including every non-finite one, which stops after its first pass. It is
not a test of singularity: a nearly singular matrix gives a small eta
with a huge x, which is why Simulation rejects a mesh with a part the
Dirichlet nodes do not hold before anything is factored.
An exactly singular matrix stops gstrf, and factorize raises SolverError.

With lu the factor of another system on the same pattern, CG converges at
the rate its condition number allows. Every system is
lam * K_tr + 2*mu * K_dev with unit Dirichlet rows, so the generalized
eigenvalues of two of them lie between 1 and their per-mode ratios
(O. Axelsson, Iterative Solution Methods, 1994, ch. 10). For the plain
system C against the condensed one C_eff, a ratio is
1 + c / (eta/tau + alpha) with c = 2 (lam + mu) or 2 mu: at most 1.04 on
the presets (lam = mu = eta = 1, tau = 0.01). A Simulation solves its
initial state this way, on the factor its steps use. Passes measured on
the presets' initial states: 6 at n = 160 (example2, alpha = 1) and at
n = 40 (both presets); 4 with tau = 1e-4; 6 with lam = -0.99, alpha = 0;
19 with tau = 10, alpha = 0; and 100 (example1) and 110 (example2) with
lam = 100, alpha = 0, tau = 10, whose largest ratio is about 2000.
_MAX_PASSES = 30 passes cost about one factor at n = 160 (6 passes took
57-89 ms, one factor 0.25-0.34 s); a solve not accepted within them is the
caller's to redo on the system's own factor.

The SuperLU extension is loaded from its file by csr.load_extension, as
the sparsetools kernels of every matvec are, not through
scipy.sparse.linalg, which imports scipy.sparse and scipy.linalg; no
module of the package imports scipy.sparse. Peak RSS of the benchmark's
creep-verify / relax-long / setup-large workloads with this solver and
SuperLU the only extension (scipy 1.17.1, Python 3.11, 2-core VM, single
5 s runs), by import route:

    import scipy.sparse.linalg (as splu does):  75.9 / 74.6 / 181.2 MiB
    the extension by file, scipy.sparse kept:   67.3 / 66.2 / 171.7 MiB
    the extension by file, no scipy.sparse:     57.2 / 53.7 / 156.9 MiB

Loading the sparsetools extension as well adds 0.1-0.3 MiB to the import
peak (30.4-30.6 MiB); with it, 30 s runs of each workload read
54.4-54.6 / 56.0 / 154.3-155.3 MiB (medians of ten and of three runs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import SparseSPD
from .csr import load_extension

_TOL = 1e-14
_MAX_PASSES = 30
_OPTIONS = {"ColPerm": "MMD_AT_PLUS_A", "DiagPivotThresh": 0.0, "SymmetricMode": True}
_SUPERLU = "scipy.sparse.linalg._dsolve._superlu"


class SolverError(RuntimeError):
    """Raised when a displacement system cannot be factored or solved."""


_superlu = load_extension(_SUPERLU, "gstrf")


@dataclass
class SolveReport:
    converged: bool         # backward_error <= _TOL
    iterations: int         # CG passes, each one substitution: 1 for an accepted direct
                            # solve, at most _MAX_PASSES, 0 for a zero right-hand side
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
    """Solve system @ x = b by CG preconditioned with lu, the factor of
    system or of another system on its pattern, until a pass is accepted
    or _MAX_PASSES have run.

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
    p = rz = None
    # a NaN backward error fails the comparison and ends the loop
    while backward_error > _TOL and passes < _MAX_PASSES:
        z = lu.solve(r)
        rz_next = dot(r, z)
        p = z if p is None else z + (rz_next / rz) * p
        rz = rz_next
        q = system.matvec(p)
        x += (rz / dot(p, q)) * p
        r, backward_error = _residual(system, b, x, norm_b)
        passes += 1
    return x, SolveReport(backward_error <= _TOL, passes, math.sqrt(dot(r, r)), backward_error)


def dot(a, b) -> float:
    """a . b as numpy's pairwise sum of the products, for every dot product
    of a run (here and in diagnostics). BLAS ddot, behind np.dot, @ and
    np.linalg.norm, splits a long sum between its threads, so its last bits
    depend on the thread count, and at the n = 160 system's length it took
    4-10 ms on a 2-core VM. With a sum in sequence instead, the
    largest energy-identity residual of example1 and example2 was ten times
    that of the pairwise sum (1.7e-13 against 1.4e-14 on example1)."""
    return float(np.multiply(a, b).sum())


def _residual(system: SparseSPD, b, x, norm_b: float) -> tuple[np.ndarray, float]:
    """b - A x and the normwise backward error of x (module docstring)."""
    r = b - system.matvec(x)
    return r, float(np.abs(r).max() / (system.norm_inf * np.abs(x).max() + norm_b))
