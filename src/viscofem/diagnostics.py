"""Energy bookkeeping and structure checks.

The discrete energy of a state (u, phi) is

    E = 1/2 ||e[u] - phi||_C^2 + alpha/2 ||phi||^2 - l(u)

with ||X||_C^2 the elasticity inner product of X with itself, ||.|| the
plain tensor L2 norm and l the load functional. All three pieces are exact:
the integrands are piecewise constant, and l against a P1 field is a dot
product with the assembled load vector. Every L2 inner product of two P0
tensor fields is one contraction against DDOT_WEIGHTS and one dot product
with the element areas (psi_inner), and the elasticity one is the plain one
against the stress: ||e - phi||_C^2 = (sigma, e - phi). Both dot products
are solver.dot, whose sum does not depend on the BLAS thread count.

Two structural identities of the scheme are checked here. Per step,

    (E^k - E^{k-1})/tau  +  alpha*tau/2 ||dphi||^2  +  tau/2 ||d(e-phi)||_C^2
        =  - eta ||dphi||^2

with dX the backward difference quotient; energy_identity_residual returns
the absolute defect, using C d(e - phi) = (sigma^k - sigma^{k-1})/tau. And
the update is the gradient flow of the reduced energy E*(phi) =
min_u E(u, phi): for any direction psi,

    eta (dphi, psi)  =  - dE*(phi)[psi]

gradient_flow_check confronts the left side with a central difference of
E* (two constrained solves per direction; E* is quadratic in phi, so the
central difference is exact up to roundoff) and also with the closed form
dE*(phi)[psi] = (G, psi), G = alpha*phi - sigma[u(phi), phi]. reduced_gradient
forms G with one constrained solve, once per pair, for all its directions.

The per-state checks (energy, scheme_residual, the energy identity,
stress_components_linf) take the Stress of a state, tensors.stress(C, e,
phi) with e the strain of its displacement, instead of recomputing it: a
driver, and the stepper, forms it once per state, and the probes take the
one stepper.equilibrium_solve returns. Each check reads its fields
directly, so a broken tensor update shows in the scheme residual whatever
produced it.

verify_result probes on the run's own Simulation, result.sim: the pairs
the steps produced on the condensed system meet derivatives of E* solved
on the plain system. A fresh Simulation would rebuild bitwise the same
matrices and factor by the same deterministic code, so it would check
nothing more. The first probe factors the plain system; every later probe,
in this verify or a second one, is a substitution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mesh import MeshGeometry
from .solver import dot
from .tensors import DDOT_WEIGHTS, Material, Stress

# The central-difference step of gradient_flow_check (E* is quadratic in phi,
# so the difference is exact up to roundoff) and verify_result's gates.
_EPS = 1e-5
_MONOTONE_SLACK = 1e-10  # energy rise taken as roundoff, relative to max(1, |E|)
_IDENTITY_TOL = 1e-8     # relative to max(1, |E|)
_SCHEME_TOL = 1e-12
_GRADIENT_TOL = 1e-4     # relative to max(1, |dE*|)


@dataclass(frozen=True)
class EnergyReport:
    """Energy split: total = elastic + relax - work, recomposed exactly."""

    total: float
    elastic: float
    relax: float
    work: float


def psi_inner(geom: MeshGeometry, X, Y) -> float:
    """L2 inner product of two P0 tensor fields."""
    return dot(geom.areas, np.multiply(X, Y) @ DDOT_WEIGHTS)


def energy(geom: MeshGeometry, m: Material, u, phi, st: Stress, load) -> EnergyReport:
    """Energy of the state (u, phi); st is its Stress and load the assembled
    load vector, so l(u) = load . u."""
    elastic = 0.5 * psi_inner(geom, st.sigma, st.gap)
    relax = 0.5 * m.alpha * psi_inner(geom, phi, phi)
    work = dot(load, np.asarray(u, dtype=float).ravel())
    return EnergyReport(total=elastic + relax - work, elastic=elastic, relax=relax, work=work)


def energy_identity_terms(geom: MeshGeometry, m: Material, tau: float, prev, curr,
                          st_prev: Stress, st: Stress):
    """The four pieces of the per-step energy identity; st_prev and st are
    the Stress of prev and curr.

    Returns (dE, visc, relax_extra, elastic_extra): the difference quotient
    of the energy and the three nonnegative dissipation terms. The identity
    states dE + relax_extra + elastic_extra = -visc.
    """
    dphi = curr.phi - prev.phi
    dphi_sq = psi_inner(geom, dphi, dphi) / tau**2  # ||dphi||^2 of the quotient
    dE = (curr.energy - prev.energy) / tau
    visc = m.eta * dphi_sq
    relax_extra = 0.5 * m.alpha * tau * dphi_sq
    elastic_extra = 0.5 / tau * psi_inner(geom, st.sigma - st_prev.sigma, st.gap - st_prev.gap)
    return dE, visc, relax_extra, elastic_extra


def energy_identity_residual(geom: MeshGeometry, m: Material, tau: float, prev, curr,
                             st_prev: Stress, st: Stress) -> float:
    """Absolute defect of the per-step energy identity for a state pair;
    st_prev and st are the Stress of prev and curr."""
    dE, visc, relax_extra, elastic_extra = energy_identity_terms(
        geom, m, tau, prev, curr, st_prev, st)
    return abs(dE + relax_extra + elastic_extra + visc)


def scheme_residual(m: Material, step, phi, phi_prev, sigma) -> float:
    """Max elementwise residual of the implicit tensor update; sigma is the
    stress of the new state (u, phi), step its StepParams.

    The update solves eta*dphi + alpha*phi - sigma[u, phi] = 0 exactly by
    construction, so anything beyond roundoff indicates a broken step.
    """
    resid = step.d * np.subtract(phi, phi_prev) + m.alpha * np.asarray(phi) - sigma
    return float(np.abs(resid).max())


def stress_components_linf(sigma) -> np.ndarray:
    """Elementwise max of |sigma_xx|, |sigma_yy|, |sigma_xy| (exact for P0)."""
    # reduced along contiguous rows: a column reduction of an (m, 3) array
    # costs several times as much
    return np.abs(np.transpose(sigma), order="C").max(axis=1)


# ---------------------------------------------------------------------------
# gradient-flow structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GradientFlowCheck:
    flow_error: float        # |eta (dphi, psi) + dE*[psi]| relative
    derivative_error: float  # closed-form derivative vs central difference


def random_direction(geom: MeshGeometry, rng) -> np.ndarray:
    """Random P0 tensor direction, normalized in the tensor L2 norm."""
    psi = rng.standard_normal((geom.mesh.n_triangles, 3))
    return psi / np.sqrt(psi_inner(geom, psi, psi))


def reduced_gradient(sim, phi) -> np.ndarray:
    """The field G = alpha*phi - sigma[u(phi), phi] of dE*(phi)[psi] = (G, psi),
    from one constrained solve on sim.system_plain."""
    from .stepper import equilibrium_solve  # deferred to avoid a module cycle

    _, st, _ = equilibrium_solve(sim, phi)
    return sim.material.alpha * np.asarray(phi) - st.sigma


def gradient_flow_check(sim, phi, phi_prev, gradient, direction) -> GradientFlowCheck:
    """Check the gradient-flow identity for one consecutive pair (phi_prev, phi)
    on the operators of a Simulation sim; gradient is reduced_gradient(sim, phi).

    Each evaluation of the reduced energy runs a constrained solve on
    sim.system_plain.
    """
    from .stepper import equilibrium_solve  # deferred to avoid a module cycle

    geom = sim.geom
    psi = np.asarray(direction, dtype=float)

    def reduced_energy(tensor_field):
        u, st, _ = equilibrium_solve(sim, tensor_field)
        return energy(geom, sim.material, u, tensor_field, st, sim.load).total

    e_plus = reduced_energy(phi + _EPS * psi)
    e_minus = reduced_energy(phi - _EPS * psi)
    cd = (e_plus - e_minus) / (2.0 * _EPS)

    flow_lhs = sim.step_params.d * psi_inner(geom, np.asarray(phi) - np.asarray(phi_prev), psi)
    derivative = psi_inner(geom, gradient, psi)

    denom = max(1.0, abs(cd))
    return GradientFlowCheck(
        flow_error=abs(flow_lhs + cd) / denom,
        derivative_error=abs(derivative - cd) / denom,
    )


# ---------------------------------------------------------------------------
# whole-run verification (used by the CLI --verify flag)
# ---------------------------------------------------------------------------


@dataclass
class VerificationReport:
    monotone_ok: bool
    identity_ok: bool
    scheme_ok: bool
    gradient_ok: bool
    max_identity: float
    max_scheme: float
    max_gradient: float
    messages: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.monotone_ok and self.identity_ok and self.scheme_ok and self.gradient_ok


def verify_result(result, directions: int = 10, seed: int = 0) -> VerificationReport:
    """Structural checks on a finished run (see RunResult in the stepper).

    Gradient-flow checks run on the consecutive pairs the run sampled, on the
    run's own Simulation result.sim; the other checks cover every step. With
    directions > 0, a run that sampled no pair fails the gradient-flow check.
    """
    sim = result.sim
    messages = []

    E = result.energy
    slack = _MONOTONE_SLACK * np.maximum(1.0, np.abs(E[:-1]))
    rises = np.flatnonzero(E[1:] > E[:-1] + slack)
    monotone_ok = rises.size == 0
    if not monotone_ok:
        k = int(rises[0]) + 1
        messages.append(f"energy rises at step {k}: {E[k - 1]:.12e} -> {E[k]:.12e}")

    scale = np.maximum(1.0, np.abs(E[1:]))
    max_identity = float((result.identity_residual[1:] / scale).max()) if len(E) > 1 else 0.0
    identity_ok = max_identity <= _IDENTITY_TOL
    if not identity_ok:
        messages.append(f"energy identity residual {max_identity:.3e} exceeds {_IDENTITY_TOL:.1e}")

    max_scheme = float(result.scheme_residual.max())
    scheme_ok = max_scheme <= _SCHEME_TOL
    if not scheme_ok:
        messages.append(f"tensor update residual {max_scheme:.3e} exceeds {_SCHEME_TOL:.1e}")

    rng = np.random.default_rng(seed)
    max_gradient = 0.0
    gradient_ok = directions == 0 or bool(result.sampled_pairs)
    if not gradient_ok:
        messages.append("gradient-flow check has nothing to check: the run sampled no step pairs")
    for k, (phi_prev, state) in sorted(result.sampled_pairs.items()):
        gradient = reduced_gradient(sim, state.phi)
        for _ in range(directions):
            psi = random_direction(sim.geom, rng)
            check = gradient_flow_check(sim, state.phi, phi_prev, gradient, psi)
            worst = max(check.flow_error, check.derivative_error)
            if worst > max_gradient:
                max_gradient = worst
            if worst > _GRADIENT_TOL:
                gradient_ok = False
                messages.append(f"gradient-flow check failed at step {k}: {worst:.3e}")
                break

    return VerificationReport(
        monotone_ok=monotone_ok,
        identity_ok=identity_ok,
        scheme_ok=scheme_ok,
        gradient_ok=gradient_ok,
        max_identity=max_identity,
        max_scheme=max_scheme,
        max_gradient=max_gradient,
        messages=messages,
    )
