"""Closed-form algebra for symmetric 2x2 tensors and the isotropic operators
of the viscoelastic solver.

Symmetric tensors are stored as 3-vectors (xx, yy, xy) holding the tensor
shear component, not the engineering double. The double contraction
therefore weights the off-diagonal slot twice:

    X : Y = Xxx*Yxx + Xyy*Yyy + 2*Xxy*Yxy      (weights DDOT_WEIGHTS)

Every fourth-order operator the solver needs is isotropic, so each one is a
Lame pair (l, m) acting as X -> l*tr(X)*I + 2*m*X. On the storage that map
is one symmetric 3x3 matrix,

    M = l * [1, 1, 0]^T [1, 1, 0] + 2*m * I       (isotropic(pair)),

applied to a tensor or a per-element field of shape (n, 3) alike as X @ M.
diag(DDOT_WEIGHTS) @ M is symmetric, so each operator is self-adjoint for
the contraction. An isotropic operator has two eigenvalues, 2*m on
trace-free tensors and DIM*l + 2*m on multiples of I, and composing or
inverting isotropic operators acts on those eigenvalues alone; in
particular any two of them commute. With

    d = eta/tau,   b = d + alpha,   beta0 = 2*mu + b,   beta1 = DIM*lam + beta0,

the step operator R = b*I + C has eigenvalues beta0 and beta1, and
R - C = b*I gives C - C R^-1 C = b * C R^-1. In 2D, where C has the
eigenvalues 2*mu and 2*(lam + mu), the pairs are

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
eigenvalue c of C becomes c * b / (b + c). StepParams holds C_eff as a
Lame pair, which the stiffness assembly takes, and the operators a step
applies (C, drag and the two update operators) as matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Spatial dimension of the tensor algebra. Kept symbolic in the formulas
# below; the mesh and element layer are the genuinely 2d parts.
DIM = 2

# Contraction weights for the (xx, yy, xy) storage.
DDOT_WEIGHTS = np.array([1.0, 1.0, 2.0])

# the identity tensor I in the storage; isotropic() uses its outer product
_IDENTITY = np.array([1.0, 1.0, 0.0])


class Lame(NamedTuple):
    """An isotropic operator X -> lam*tr(X)*I + 2*mu*X."""

    lam: float
    mu: float


@dataclass(frozen=True)
class Material:
    """Isotropic material: Lame pair (lam, mu), viscosity eta, relaxation alpha.

    Admissibility (see validate_material): mu > 0, lam > -(2/DIM)*mu, eta > 0,
    alpha >= 0. The first two make C positive definite on symmetric tensors,
    with smallest eigenvalue min(2*mu, 2*mu + DIM*lam). A Material is itself
    the Lame pair of C for isotropic().
    """

    lam: float
    mu: float
    eta: float
    alpha: float


def isotropic(pair: Lame | Material) -> np.ndarray:
    """The symmetric 3x3 matrix M of a Lame pair: X @ M = lam*tr(X)*I + 2*mu*X."""
    return pair.lam * np.outer(_IDENTITY, _IDENTITY) + 2.0 * pair.mu * np.eye(3)


@dataclass(frozen=True, eq=False)
class StepParams:
    """Per-step constants of the implicit update (see the module docstring):
    d = eta/tau, the condensed stiffness as a Lame pair, and the matrices a
    step applies. A step computes

        phi = e @ update_strain + phi_prev @ update_prev,   sigma = (e - phi) @ C,

    and its right-hand side carries phi_prev @ drag.
    """

    tau: float
    d: float
    condensed: Lame
    C: np.ndarray              # elasticity
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
        beta1 = DIM * m.lam + beta0
        return cls(
            tau=tau,
            d=d,
            condensed=Lame((m.lam + m.mu) * b / beta1 - m.mu * b / beta0, m.mu * b / beta0),
            C=isotropic(m),
            drag=isotropic(Lame(d * (m.lam + m.mu) / beta1 - d * m.mu / beta0, d * m.mu / beta0)),
            update_strain=isotropic(Lame((m.lam + m.mu) / beta1 - m.mu / beta0, m.mu / beta0)),
            update_prev=isotropic(Lame(-d * m.lam / (beta0 * beta1), d / (2.0 * beta0))),
        )


def validate_material(m: Material) -> None:
    """Raise ValueError naming the violated inequality, if any."""
    for name in ("lam", "mu", "eta", "alpha"):
        v = getattr(m, name)
        if not np.isfinite(v):
            raise ValueError(f"material parameter {name}={v} is not finite")
    if not (m.mu > 0.0):
        raise ValueError(f"shear modulus must satisfy mu > 0, got mu={m.mu}")
    lam_floor = -(2.0 / DIM) * m.mu
    if not (m.lam > lam_floor):
        raise ValueError(
            f"first Lame parameter must satisfy lam > -(2/d)*mu = {lam_floor}, got lam={m.lam}"
        )
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
    C is the elasticity matrix isotropic(material), as StepParams.C holds it."""
    gap = np.subtract(e, phi, dtype=float)
    return Stress(gap, gap @ C)
