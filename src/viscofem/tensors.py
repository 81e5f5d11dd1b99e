"""Closed-form algebra for symmetric 2x2 tensors and the isotropic operators
of the viscoelastic solver.

Symmetric tensors are stored as 3-vectors (xx, yy, xy) holding the tensor
shear component, not the engineering double. The double contraction
therefore weights the off-diagonal slot twice:

    X : Y = Xxx*Yxx + Xyy*Yyy + 2*Xxy*Yxy      (weights DDOT_WEIGHTS)

Every fourth-order operator the solver needs is isotropic, X -> l*tr(X)*I
+ 2*m*X for a pair of numbers (l, m). On the storage that map is one
symmetric 3x3 matrix,

    M = l * [1, 1, 0]^T [1, 1, 0] + 2*m * I       (isotropic(l, m)),

applied to a tensor or a per-element field of shape (n, 3) alike as X @ M,
and the matrix is the only form an operator takes: l = M[0, 1] and
2*m = M[2, 2] exactly. diag(DDOT_WEIGHTS) @ M is symmetric, so each
operator is self-adjoint for the contraction. An isotropic operator has two
eigenvalues, 2*m on trace-free tensors and 2*l + 2*m on multiples of I, and
composing or inverting isotropic operators acts on those eigenvalues alone;
in particular any two of them commute. With

    d = eta/tau,   b = d + alpha,   beta0 = 2*mu + b,   beta1 = 2*lam + beta0,

the step operator R = b*I + C has eigenvalues beta0 and beta1, and
R - C = b*I gives C - C R^-1 C = b * C R^-1. C has the eigenvalues 2*mu
and 2*(lam + mu), and the pairs of the operators are

    operator               l                               m
    C      elasticity      lam                             mu
    R^-1   step inverse    -lam / (beta0*beta1)            1 / (2*beta0)
    C R^-1                 (lam+mu)/beta1 - mu/beta0       mu / beta0
    C_eff  b * C R^-1      (lam+mu)*b/beta1 - mu*b/beta0   mu*b / beta0
    drag   d * C R^-1      d*(lam+mu)/beta1 - d*mu/beta0   d*mu / beta0

C_eff is the condensed stiffness: substituting the implicit tensor update
phi = R^-1 (C e + d*phi_prev) = (C R^-1) e + (d R^-1) phi_prev into
sigma = C (e - phi) leaves sigma = C_eff e - drag phi_prev. Both betas are
positive whenever the material is admissible and tau > 0, which makes
every pair well defined, and C_eff stays positive definite: each
eigenvalue c of C becomes c * b / (b + c). StepParams holds the matrices
of C and C_eff, which the stiffness assembly takes, and of the operators a
step applies (drag and the two update operators).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Contraction weights for the (xx, yy, xy) storage.
DDOT_WEIGHTS = np.array([1.0, 1.0, 2.0])

# the identity tensor I in the storage; isotropic() uses its outer product
_IDENTITY = np.array([1.0, 1.0, 0.0])


@dataclass(frozen=True)
class Material:
    """Isotropic material: Lame pair (lam, mu), viscosity eta, relaxation alpha.

    Admissibility (see validate_material): mu > 0, lam > -mu, eta > 0,
    alpha >= 0. The first two make C positive definite on symmetric tensors,
    with smallest eigenvalue min(2*mu, 2*mu + 2*lam).
    """

    lam: float
    mu: float
    eta: float
    alpha: float


def isotropic(lam: float, mu: float) -> np.ndarray:
    """The symmetric 3x3 matrix M of X -> lam*tr(X)*I + 2*mu*X, as X @ M."""
    return lam * np.outer(_IDENTITY, _IDENTITY) + 2.0 * mu * np.eye(3)


@dataclass(frozen=True, eq=False)
class StepParams:
    """Per-step constants of the implicit update (see the module docstring):
    d = eta/tau and the matrices of the elasticity, the condensed stiffness
    and the operators a step applies. A step computes

        phi = e @ update_strain + phi_prev @ update_prev,   sigma = (e - phi) @ C,

    and its right-hand side carries phi_prev @ drag.
    """

    tau: float
    d: float
    C: np.ndarray              # elasticity
    condensed: np.ndarray      # C_eff = b * C R^-1
    drag: np.ndarray           # d * C R^-1
    update_strain: np.ndarray  # C R^-1
    update_prev: np.ndarray    # d * R^-1

    @classmethod
    def from_material(cls, m: Material, tau: float) -> "StepParams":
        if not (tau > 0.0):
            raise ValueError(f"time step must be positive, got tau={tau}")
        d = m.eta / tau
        b = d + m.alpha
        beta0 = 2.0 * m.mu + b
        beta1 = 2.0 * m.lam + beta0
        return cls(
            tau=tau,
            d=d,
            C=isotropic(m.lam, m.mu),
            condensed=isotropic((m.lam + m.mu) * b / beta1 - m.mu * b / beta0, m.mu * b / beta0),
            drag=isotropic(d * (m.lam + m.mu) / beta1 - d * m.mu / beta0, d * m.mu / beta0),
            update_strain=isotropic((m.lam + m.mu) / beta1 - m.mu / beta0, m.mu / beta0),
            update_prev=isotropic(-d * m.lam / (beta0 * beta1), d / (2.0 * beta0)),
        )


def validate_material(m: Material) -> None:
    """Raise ValueError naming the violated inequality, if any."""
    for name in ("lam", "mu", "eta", "alpha"):
        v = getattr(m, name)
        if not np.isfinite(v):
            raise ValueError(f"material parameter {name}={v} is not finite")
    if not (m.mu > 0.0):
        raise ValueError(f"shear modulus must satisfy mu > 0, got mu={m.mu}")
    if not (m.lam > -m.mu):
        raise ValueError(f"first Lame parameter must satisfy lam > -mu = {-m.mu}, got lam={m.lam}")
    if not (m.eta > 0.0):
        raise ValueError(f"viscosity must satisfy eta > 0, got eta={m.eta}")
    if not (m.alpha >= 0.0):
        raise ValueError(f"relaxation parameter must satisfy alpha >= 0, got alpha={m.alpha}")


class Stress(NamedTuple):
    """The elastic strain gap = e - phi of a state and its stress sigma = C gap."""

    gap: np.ndarray
    sigma: np.ndarray


def stress(C: np.ndarray, e, phi) -> Stress:
    """Constitutive stress sigma = C (e - phi) with the gap e - phi it acts on;
    C is the elasticity matrix isotropic(lam, mu), as StepParams.C holds it."""
    gap = np.subtract(e, phi, dtype=float)
    return Stress(gap, gap @ C)
