"""Closed-form algebra for symmetric 2x2 tensors and the isotropic operators
of the viscoelastic solver.

Symmetric tensors are stored as 3-vectors (xx, yy, xy) holding the tensor
shear component, not the engineering double. The double contraction
therefore weights the off-diagonal slot twice:

    X : Y = Xxx*Yxx + Xyy*Yyy + 2*Xxy*Yxy

The solver needs three isotropic fourth-order operators, all applied through
their closed forms (d = 2):

    C X       = lam*tr(X)*I + 2*mu*X                 elasticity tensor
    R X       = (eta/tau + alpha)*X + C X            implicit-step operator
    R^-1 X    = (1/beta0) * (X - (lam/beta1)*tr(X)*I)
    C_eff X   = C (X - R^-1 C X)                     condensed stiffness

C_eff is what the displacement solve sees once the implicit tensor update
phi = R^-1 (C e + eta/tau * phi_prev) is substituted into sigma = C(e - phi):
the elimination leaves sigma = C_eff e - eta/tau * C R^-1 phi_prev. It is
softer than C (relaxation sheds stress) but stays SPD: in the eigenbasis of
C each eigenvalue c becomes c * (eta/tau + alpha) / (eta/tau + alpha + c).

with beta0 = 2*mu + eta/tau + alpha and beta1 = d*lam + beta0. Both betas
are positive whenever the material is admissible and tau > 0, which makes
the inverse well defined without ever forming a matrix.

Every operator accepts arrays whose last axis has length 3 and works
elementwise, so a single tensor and a per-element field of shape (n, 3) go
through the same code path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Spatial dimension of the tensor algebra. Kept symbolic in the formulas
# below; the mesh and element layer are the genuinely 2d parts.
DIM = 2

# Contraction weights for the (xx, yy, xy) storage.
DDOT_WEIGHTS = np.array([1.0, 1.0, 2.0])

# The identity tensor in 3-vector storage.
IDENTITY = np.array([1.0, 1.0, 0.0])


@dataclass(frozen=True)
class Material:
    """Isotropic material: Lame pair (lam, mu), viscosity eta, relaxation alpha.

    Admissibility (see validate_material): mu > 0, lam > -(2/d)*mu, eta > 0,
    alpha >= 0. The first two make C positive definite on symmetric tensors,
    with smallest eigenvalue min(2*mu, 2*mu + d*lam).
    """

    lam: float
    mu: float
    eta: float
    alpha: float


@dataclass(frozen=True)
class StepParams:
    """Per-step scalars of the implicit update.

    beta0 = 2*mu + eta/tau + alpha and beta1 = d*lam + beta0 are the two
    eigenvalue-like coefficients of the step operator; both must be positive
    for the closed-form inverse to exist.
    """

    tau: float
    beta0: float
    beta1: float

    @classmethod
    def from_material(cls, m: Material, tau: float) -> "StepParams":
        if not (tau > 0.0):
            raise ValueError(f"time step must be positive, got tau={tau}")
        beta0 = 2.0 * m.mu + m.eta / tau + m.alpha
        return cls(tau=tau, beta0=beta0, beta1=DIM * m.lam + beta0)


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


def tensor_trace(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    return X[..., 0] + X[..., 1]


def ddot(X, Y) -> np.ndarray:
    """Double contraction X : Y with the off-diagonal counted twice."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    return X[..., 0] * Y[..., 0] + X[..., 1] * Y[..., 1] + 2.0 * X[..., 2] * Y[..., 2]


def apply_C(m: Material, X) -> np.ndarray:
    """Elasticity tensor: lam*tr(X)*I + 2*mu*X."""
    X = np.asarray(X, dtype=float)
    out = 2.0 * m.mu * X
    t = m.lam * (X[..., 0] + X[..., 1])
    out[..., 0] += t
    out[..., 1] += t
    return out


def apply_relax(m: Material, s: StepParams, X) -> np.ndarray:
    """Implicit-step operator: (eta/tau + alpha)*X + C X."""
    X = np.asarray(X, dtype=float)
    return (m.eta / s.tau + m.alpha) * X + apply_C(m, X)


def apply_relax_inv(m: Material, s: StepParams, X) -> np.ndarray:
    """Closed-form inverse of the implicit-step operator.

    (1/beta0) * (X - (lam/beta1)*tr(X)*I); exact because the operator is
    isotropic, so trace and deviatoric parts decouple.
    """
    X = np.asarray(X, dtype=float)
    out = X.astype(float, copy=True)
    t = (m.lam / s.beta1) * (X[..., 0] + X[..., 1])
    out[..., 0] -= t
    out[..., 1] -= t
    out /= s.beta0
    return out


def apply_C_eff(m: Material, s: StepParams, X) -> np.ndarray:
    """Condensed stiffness C (X - R^-1 C X) seen by the displacement solve."""
    X = np.asarray(X, dtype=float)
    return apply_C(m, X - apply_relax_inv(m, s, apply_C(m, X)))


def stress(m: Material, e, phi) -> np.ndarray:
    """Constitutive stress sigma = C (e - phi)."""
    return apply_C(m, np.asarray(e, dtype=float) - np.asarray(phi, dtype=float))


def c_inner(m: Material, X, Y) -> np.ndarray:
    """Elasticity inner product (C X) : Y (symmetric in X and Y)."""
    return ddot(apply_C(m, X), Y)
