"""Backward Euler time stepping for the viscoelastic model.

Each step solves one displacement system and then updates the internal
tensor field elementwise:

    solve   (C_eff e[u^k], e[v]) = (drag phi^{k-1}, e[v]) + l(v)
    update  phi^k = R^-1 (C e[u^k] + eta/tau * phi^{k-1})
                  = (C R^-1) e[u^k] + (eta/tau R^-1) phi^{k-1}

R is the per-element step operator (eta/tau + alpha) I + C, C_eff the
condensed stiffness C (I - R^-1 C) and drag = eta/tau * C R^-1; all of them
are isotropic, so they commute, and a step applies each as one 3x3 matrix
precomputed in StepParams (see tensors). Substituting the update back into
the balance equation recovers the coupled implicit system exactly, so the
pair (u^k, phi^k) satisfies both equations to solver tolerance;
scheme_residual tracks that per step.

The displacement matrices and the load vector are constant in time, so a
Simulation assembles the stiffness once and keeps the two constrained
systems built from it: the plain one (C) for equilibrium solves and the
condensed one (C_eff) for the steps. It factors a system on its first
solve and keeps that one factor until another system is solved: a run
factors the plain system for the initial state, then the condensed one
for the steps, and never holds two factors.

Each field of a state is computed once. A step computes the strain e of
the new displacement, the update phi from it, and the new state's Stress
(the gap e - phi and sigma = C (e - phi), tensors.stress) once; the energy
split, the scheme residual, the energy identity and the stress maxima are
the diagnostics functions called on those arrays. The identity also needs
the Stress of the previous state: a Simulation remembers the Stress of the
last state it produced and reuses it when that state is stepped, and
computes it, by the same strain_field and stress calls, only for a state it
did not produce (a custom driver's). States are treated as immutable.

Each edge-connected group of triangles needs two Dirichlet nodes, or its
rigid motions are not fixed and the plain system is singular; Simulation
rejects a mesh with such a group before anything is factored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import diagnostics
from .assembly import SparseSPD, assemble_stiffness, load_vector, tensor_load
from .fields import BoundaryData, build_dirichlet, strain_field, zero_tensor_field
from .mesh import (GAMMA0, Mesh, MeshGeometry, boundary_predicate, build_unit_square,
                   classify_boundary, edge_groups, load_mesh)
from .solver import SolveReport, SolverError, factorize, solve_spd
from .tensors import Material, Stress, StepParams, stress, validate_material


@dataclass(frozen=True)
class SimulationState:
    """One time level: step index k, time t = k*tau, fields, total energy."""

    k: int
    t: float
    u: np.ndarray       # (n_nodes, 2) nodal displacement
    phi: np.ndarray     # (n_triangles, 3) internal tensor field
    energy: float


@dataclass(frozen=True)
class StepReport:
    backward_error: float   # of the displacement solve
    residual: float
    scheme_residual: float
    identity_residual: float
    energy: diagnostics.EnergyReport
    sigma_linf: np.ndarray  # (3,): max |sigma_xx|, |sigma_yy|, |sigma_xy|


@dataclass(frozen=True)
class MeshSpec:
    """Either a structured n-by-n unit square or a mesh file on disk."""

    n: int | None = None
    pattern: str = "alternating"
    path: str | None = None

    def build(self) -> Mesh:
        if (self.n is None) == (self.path is None):
            raise ValueError("mesh spec needs exactly one of n or path")
        if self.path is not None:
            return load_mesh(self.path)
        return build_unit_square(self.n, pattern=self.pattern)


@dataclass(frozen=True)
class RunConfig:
    material: Material
    tau: float
    t_end: float
    mesh: MeshSpec
    gamma0: str
    bc: BoundaryData
    outdir: str = "out"
    cadence: int = 10

    @property
    def n_steps(self) -> int:
        return count_steps(self.t_end, self.tau)


# A run records eleven 8-byte numbers per step (the time, six energy and
# residual series, three stress maxima, the solve's backward error), so this
# ceiling keeps that record under 1 GB before any field is stored.
_MAX_STEPS = 10**7


def count_steps(t_end: float, tau: float) -> int:
    """Number of steps covering (0, T]; tau must divide into T at least once,
    and at most _MAX_STEPS times.

    The relative nudge absorbs cases like T/tau = 0.2/0.1 where the float
    quotient lands just below the integer.
    """
    if not (0.0 < tau <= t_end):
        raise ValueError(f"need 0 < tau <= T, got tau = {tau}, T = {t_end}")
    steps = t_end / tau * (1.0 + 1e-12)
    if not math.isfinite(steps):
        raise ValueError(f"T / tau is not finite, got tau = {tau}, T = {t_end}")
    if steps >= _MAX_STEPS + 1:
        raise ValueError(f"T / tau = {steps:.3e} steps, more than a run can hold ({_MAX_STEPS})")
    return int(math.floor(steps))


@dataclass
class RunResult:
    """Full trajectory record of one run by the Simulation sim. Arrays have
    one row per time level."""

    sim: Simulation
    times: np.ndarray
    energy: np.ndarray
    elastic: np.ndarray
    relax: np.ndarray
    work: np.ndarray
    identity_residual: np.ndarray
    scheme_residual: np.ndarray
    sigma_linf: np.ndarray     # (N+1, 3): max |sigma_xx|, |sigma_yy|, |sigma_xy|
    backward_error: np.ndarray  # of each level's displacement solve
    snapshots: list[SimulationState] = field(default_factory=list)
    sampled_pairs: dict[int, tuple[np.ndarray, SimulationState]] = field(default_factory=dict)

    @property
    def mesh(self) -> Mesh:
        return self.sim.mesh

    @property
    def final(self) -> SimulationState:
        return self.snapshots[-1]


class Simulation:
    """Precomputed operators for one configuration; states flow through step().

    The mesh, the load vector and both constrained systems are built once,
    here; the RunResult of run() keeps the Simulation for verify_result.
    """

    def __init__(self, cfg: RunConfig):
        validate_material(cfg.material)
        self.config = cfg
        self.material = cfg.material
        self.step_params = StepParams.from_material(cfg.material, cfg.tau)
        mesh = cfg.mesh.build()
        if cfg.gamma0 == "file":
            # keep the labels stored in the mesh file
            if not np.any(mesh.edge_labels == GAMMA0):
                raise ValueError("gamma0 = file, but the mesh has no GAMMA0 edges")
        else:
            mesh = classify_boundary(mesh, boundary_predicate(cfg.gamma0))
        self.mesh = mesh
        self.geom = MeshGeometry(mesh)

        self.dirichlet = build_dirichlet(mesh, cfg.bc.g)
        _check_held(mesh, self.dirichlet.nodes)
        self.load = load_vector(self.geom, cfg.bc)
        stiffness = assemble_stiffness(self.geom, self.dirichlet)
        self.system_plain = stiffness.system(self.material)
        self.system_eff = stiffness.system(self.step_params.condensed)
        self._factor = None  # (system, its factor) of the last system solved
        self._last = None    # (state, its Stress) of the last state produced

    def _solve(self, system: SparseSPD, rhs, what: str) -> tuple[np.ndarray, SolveReport]:
        if self._factor is None or self._factor[0] is not system:
            self._factor = None  # free the old factor before building the next
            self._factor = (system, factorize(system))
        x, rep = solve_spd(system, system.reduce_rhs(rhs), self._factor[1])
        if not rep.converged:
            raise SolverError(f"{what} failed: backward error {rep.backward_error:.3e}, "
                              f"residual {rep.residual:.3e}")
        u = x.reshape(-1, 2)
        u[self.dirichlet.nodes] = self.dirichlet.values
        return u, rep

    def _stress_of(self, state: SimulationState) -> Stress:
        """Stress of state, remembered when state is the last one produced."""
        if self._last is not None and self._last[0] is state:
            return self._last[1]
        return stress(self.step_params.C, strain_field(self.geom, state.u), state.phi)

    def initial_state(self, phi0: np.ndarray | None = None) -> tuple[SimulationState, StepReport]:
        """Equilibrium displacement for the initial tensor field (default 0)."""
        phi = zero_tensor_field(self.mesh) if phi0 is None else np.array(phi0, dtype=float)
        if phi.shape != (self.mesh.n_triangles, 3):
            raise ValueError(f"phi0 has shape {phi.shape}, expected {(self.mesh.n_triangles, 3)}")
        bad = np.argwhere(~np.isfinite(phi))
        if bad.size:
            t, c = bad[0]
            raise ValueError(f"phi0 is not finite at triangle {t}, component "
                             f"{('xx', 'yy', 'xy')[c]}: {phi[t, c]}")
        u, rep = equilibrium_solve(self, phi)
        st = stress(self.step_params.C, strain_field(self.geom, u), phi)
        report = diagnostics.energy(self.geom, self.material, u, phi, st, self.load)
        state = SimulationState(k=0, t=0.0, u=u, phi=phi, energy=report.total)
        self._last = (state, st)
        return state, StepReport(rep.backward_error, rep.residual, 0.0, 0.0, report,
                                 diagnostics.stress_components_linf(st.sigma))

    def step(self, state: SimulationState) -> tuple[SimulationState, StepReport]:
        m, sp = self.material, self.step_params
        k = state.k + 1
        st_prev = self._stress_of(state)
        rhs = tensor_load(self.geom, state.phi @ sp.drag) + self.load
        u, rep = self._solve(self.system_eff, rhs, f"displacement solve at step {k}")

        e = strain_field(self.geom, u)
        phi = e @ sp.update_strain + state.phi @ sp.update_prev
        st = stress(sp.C, e, phi)

        report = diagnostics.energy(self.geom, m, u, phi, st, self.load)
        new = SimulationState(k=k, t=k * sp.tau, u=u, phi=phi, energy=report.total)
        self._last = (new, st)
        return new, StepReport(
            backward_error=rep.backward_error,
            residual=rep.residual,
            scheme_residual=diagnostics.scheme_residual(m, sp, phi, state.phi, st.sigma),
            identity_residual=diagnostics.energy_identity_residual(
                self.geom, m, sp.tau, state, new, st_prev, st),
            energy=report,
            sigma_linf=diagnostics.stress_components_linf(st.sigma),
        )

    def run(self, phi0: np.ndarray | None = None, sample_steps=()) -> RunResult:
        cfg = self.config
        n = cfg.n_steps
        sample = {int(k) for k in sample_steps}
        bad = [k for k in sample if not 1 <= k <= n]
        if bad:
            raise ValueError(f"sample steps {sorted(bad)} outside 1..{n}")

        times = np.empty(n + 1)
        series = {name: np.empty(n + 1) for name in
                  ("energy", "elastic", "relax", "work", "identity", "scheme")}
        sigma_linf = np.empty((n + 1, 3))
        backward_error = np.empty(n + 1)
        snapshots: list[SimulationState] = []
        pairs: dict[int, tuple[np.ndarray, SimulationState]] = {}

        state, rep = self.initial_state(phi0)
        for k in range(n + 1):
            times[k] = state.t
            series["energy"][k] = rep.energy.total
            series["elastic"][k] = rep.energy.elastic
            series["relax"][k] = rep.energy.relax
            series["work"][k] = rep.energy.work
            series["identity"][k] = rep.identity_residual
            series["scheme"][k] = rep.scheme_residual
            sigma_linf[k] = rep.sigma_linf
            backward_error[k] = rep.backward_error
            if k == 0 or k == n or (cfg.cadence > 0 and k % cfg.cadence == 0):
                snapshots.append(state)
            if k == n:
                break
            phi_prev = state.phi
            state, rep = self.step(state)
            if state.k in sample:
                pairs[state.k] = (phi_prev, state)

        return RunResult(
            sim=self,
            times=times,
            energy=series["energy"],
            elastic=series["elastic"],
            relax=series["relax"],
            work=series["work"],
            identity_residual=series["identity"],
            scheme_residual=series["scheme"],
            sigma_linf=sigma_linf,
            backward_error=backward_error,
            snapshots=snapshots,
            sampled_pairs=pairs,
        )


def default_sample_steps(n_steps: int) -> tuple[int, ...]:
    """Early, middle and final step, deduplicated, for gradient-flow probes."""
    return tuple(sorted({max(1, n_steps // 10), max(1, n_steps // 2), n_steps}))


def run(cfg: RunConfig, sample_steps=None) -> RunResult:
    sim = Simulation(cfg)
    if sample_steps is None:
        sample_steps = default_sample_steps(cfg.n_steps)
    return sim.run(sample_steps=sample_steps)


def equilibrium_solve(sim: Simulation, phi) -> tuple[np.ndarray, SolveReport]:
    """Displacement minimizing the energy at a frozen tensor field phi.

    Solves the plain system of sim with the right-hand side (C phi, e[v]) +
    l(v). The initial state and the gradient-flow probes use it.
    """
    rhs = tensor_load(sim.geom, np.asarray(phi, dtype=float) @ sim.step_params.C) + sim.load
    return sim._solve(sim.system_plain, rhs, "equilibrium solve")


def _check_held(mesh: Mesh, dirichlet_nodes: np.ndarray) -> None:
    """Raise ValueError if an edge-connected group of triangles has fewer
    than two Dirichlet nodes, naming one of its other nodes."""
    group = edge_groups(mesh)
    fixed = np.zeros(mesh.n_nodes, dtype=bool)
    fixed[dirichlet_nodes] = True
    # distinct (group, Dirichlet node) pairs, counted per group
    pairs = np.unique((group[:, None] * mesh.n_nodes + mesh.triangles)[fixed[mesh.triangles]])
    count = np.bincount(pairs // mesh.n_nodes, minlength=mesh.n_triangles)
    roots = np.flatnonzero(group == np.arange(mesh.n_triangles))
    loose = roots[count[roots] < 2]
    if loose.size:
        t = int(loose[0])
        part = mesh.triangles[group == t]
        raise ValueError(
            f"the mesh part at node {int(part[~fixed[part]][0])} (triangle {t} and the "
            f"triangles edge-connected to it) has {count[t]} Dirichlet node(s); at least "
            f"two are needed to hold it")
