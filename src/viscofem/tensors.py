"""Closed-form algebra for symmetric 2x2 tensors and the isotropic operators
of the viscoelastic solver.

Symmetric tensors are stored as 3-vectors (xx, yy, xy) holding the tensor
shear component, not the engineering double. The double contraction
therefore weights the off-diagonal slot twice:

    X : Y = Xxx*Yxx + Xyy*Yyy + 2*Xxy*Yxy

Every fourth-order operator the solver needs is isotropic, so each one is a
Lame pair (l, m) acting as X -> l*tr(X)*I + 2*m*X, and apply_C applies any
of them. An isotropic operator has two eigenvalues, 2*m on trace-free
tensors and DIM*l + 2*m on multiples of I, and composing or inverting
isotropic operators acts on those eigenvalues alone. With

    d = eta/tau,   b = d + alpha,   beta0 = 2*mu + b,   beta1 = DIM*lam + beta0,

the step operator R = b*I + C has eigenvalues beta0 and beta1, and
R - C = b*I gives C - C R^-1 C = b * C R^-1. In 2D, where C has the
eigenvalues 2*mu and 2*(lam + mu), the four pairs are

    operator               l                               m
    C      elasticity      lam                             mu
    R^-1   step inverse    -lam / (beta0*beta1)            1 / (2*beta0)
    C_eff  b * C R^-1      (lam+mu)*b/beta1 - mu*b/beta0   mu*b / beta0
    drag   d * C R^-1      d*(lam+mu)/beta1 - d*mu/beta0   d*mu / beta0

C_eff is the condensed stiffness: substituting the implicit tensor update
phi = R^-1 (C e + d*phi_prev) into sigma = C (e - phi) leaves
sigma = C_eff e - drag phi_prev. Both betas are positive whenever the
material is admissible and tau > 0, which makes every pair well defined,
and C_eff stays positive definite: each eigenvalue c of C becomes
c * b / (b + c).

Every operator accepts arrays whose last axis has length 3 and works
elementwise, so a single tensor and a per-element field of shape (n, 3) go
through the same code path.
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
    the Lame pair of C for apply_C.
    """

    lam: float
    mu: float
    eta: float
    alpha: float


@dataclass(frozen=True)
class StepParams:
    """Per-step constants of the implicit update: d = eta/tau and the three
    step operators as Lame pairs (see the module docstring)."""

    tau: float
    d: float
    relax_inv: Lame
    condensed: Lame
    drag: Lame

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
            relax_inv=Lame(-m.lam / (beta0 * beta1), 1.0 / (2.0 * beta0)),
            condensed=Lame((m.lam + m.mu) * b / beta1 - m.mu * b / beta0, m.mu * b / beta0),
            drag=Lame(d * (m.lam + m.mu) / beta1 - d * m.mu / beta0, d * m.mu / beta0),
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


# ---------------------------------------------------------------------------
# operators on (..., 3) arrays
# ---------------------------------------------------------------------------


def ddot(X, Y) -> np.ndarray:
    """Double contraction X : Y with the off-diagonal counted twice."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    return X[..., 0] * Y[..., 0] + X[..., 1] * Y[..., 1] + 2.0 * X[..., 2] * Y[..., 2]


def apply_C(pair: Lame | Material, X) -> np.ndarray:
    """The isotropic operator of a Lame pair: lam*tr(X)*I + 2*mu*X."""
    X = np.asarray(X, dtype=float)
    out = 2.0 * pair.mu * X
    t = pair.lam * (X[..., 0] + X[..., 1])
    out[..., 0] += t
    out[..., 1] += t
    return out


def stress(m: Material, e, phi) -> np.ndarray:
    """Constitutive stress sigma = C (e - phi)."""
    return apply_C(m, np.asarray(e, dtype=float) - np.asarray(phi, dtype=float))
