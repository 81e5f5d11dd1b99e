"""Jacobi-preconditioned conjugate gradients for the reduced SPD systems.

Every system a run solves is a constrained stiffness matrix, a SparseSPD
built by Stiffness.system as lam * K_tr + 2*mu * K_dev on one CSR pattern
(symmetric, positive definite, positive diagonal), so there is one solver
path and nothing to configure. Two module constants fix its behaviour:

    _RTOL = 1e-12        relative residual target, ||r|| <= _RTOL * ||b||
    _ITER_PER_DOF = 20   iteration cap, _ITER_PER_DOF * dimension

The structural checks downstream (energy identity 1e-8, patch test 1e-10,
gradient flow 1e-4) are calibrated against the 1e-12 target: a looser
target would let them fail, and a caller-chosen one would let a run pass
its checks on a different footing than the tests. The cap is far beyond
what CG needs on an SPD system (at most the dimension in exact arithmetic)
and only ends a solve whose matrix or right-hand side is broken.

Convergence is tested on the CG residual recurrence. The report carries
the recomputed true residual ||b - A x||_2 of the returned iterate, which
is the last CG iterate. On non-convergence (cap reached, or p.Ap <= 0: the
matrix is not positive definite along the search direction, or the data
is not finite) that iterate is returned with converged = False; raising is
the caller's call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import SparseSPD

_RTOL = 1e-12
_ITER_PER_DOF = 20


@dataclass
class SolveReport:
    converged: bool
    iterations: int
    residual: float  # true ||b - A x||_2 of the returned iterate


def solve_spd(system: SparseSPD, b, x0=None) -> tuple[np.ndarray, SolveReport]:
    """Solve system.matrix @ x = b by Jacobi-PCG, warm-started from x0.

    x0 is not modified. Returns (x, SolveReport).
    """
    A = system.matrix
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    if A.shape != (n, n):
        raise ValueError(f"matrix shape {A.shape} does not match rhs length {n}")

    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        return np.zeros(n), SolveReport(True, 0, 0.0)

    diag = A.diagonal()
    if np.any(diag <= 0.0):
        raise ValueError("Jacobi preconditioner needs a strictly positive diagonal")
    inv_diag = 1.0 / diag
    target = _RTOL * norm_b

    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float).reshape(n)
    r = b - A @ x
    z = inv_diag * r
    rz = r @ z
    p = z.copy()
    iterations = 0
    converged = bool(np.linalg.norm(r) <= target)

    while not converged and iterations < _ITER_PER_DOF * n:
        Ap = A @ p
        pAp = p @ Ap
        if not pAp > 0.0:
            break  # not SPD along this direction (or NaN); keep the current iterate
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        iterations += 1
        if np.linalg.norm(r) <= target:
            converged = True
            break
        z = inv_diag * r
        rz_next = r @ z
        p = z + (rz_next / rz) * p
        rz = rz_next

    # the recurrence for r tracks b - A x exactly only in exact arithmetic;
    # report the recomputed true residual of what is returned
    residual = float(np.linalg.norm(b - A @ x))
    return x, SolveReport(converged=converged, iterations=iterations, residual=residual)
