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

A Simulation decides the Dirichlet boundary once, by classify_boundary with
the run's gamma0, and builds the Dirichlet set from it. The displacement
matrices and the load vector are constant in time, so it assembles the
stiffness once and keeps the two constrained systems built from it: the
plain one (C) for equilibrium solves and the condensed one (C_eff) for the
steps. Their constrained rows and columns are unit and the factor does no
row pivoting, so every solve returns the prescribed values at the
Dirichlet nodes exactly; nothing writes them afterwards.

A Simulation holds at most one factor, and frees it before it builds
another. A run factors once: the initial state solves the plain system by
CG preconditioned with the condensed factor (solver), built then, and the
steps solve directly on that factor. Only when CG is not accepted within
its pass cap, at an extreme contrast between C and C_eff, is the plain
system factored for the initial state and the condensed one again for the
steps. The verify probes (equilibrium_solve) solve the plain system
directly: the first probe factors it, and the rest reuse that factor.

Each field of a state is computed once. A step computes the strain e of
the new displacement, the update phi from it, and the new state's Stress
(the gap e - phi and sigma = C (e - phi), tensors.stress) once; an
equilibrium solve returns the Stress of the state it solves for. The energy
split, the scheme residual, the energy identity and the stress maxima are
the diagnostics functions called on those arrays. The identity also needs
the Stress of the previous state: a Simulation remembers the Stress of the
last state it produced and reuses it when that state is stepped, and
computes it, by the same strain_field and stress calls, only for a state it
did not produce (a custom driver's). States are treated as immutable.

run records each time level as one row of one table, from the time and
the level's StepReport; RunResult's series are its columns (RunResult lists
their order).

Each edge-connected group of triangles needs two Dirichlet nodes, or its
rigid motions are not fixed and the plain system is singular; prepare_mesh,
for Simulation and check-config, rejects a mesh with such a group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import diagnostics
from .assembly import SparseSPD, assemble_stiffness, load_vector, tensor_load
from .fields import BoundaryData, DirichletSet, build_dirichlet, strain_field, zero_tensor_field
from .mesh import (Mesh, MeshGeometry, build_unit_square, classify_boundary, edge_groups,
                   load_mesh)
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


# A run records one row of eleven 8-byte numbers per time level (RunResult),
# so this ceiling keeps that table under 1 GB before any field is stored.
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
    """Full trajectory record of one run by the Simulation sim.

    Simulation.run records each time level as one row of one (N+1, 11)
    table, and the nine series are views of its columns, in the order the
    files write them: times, energy, elastic, relax, work and
    identity_residual (energy.csv), the three columns of sigma_linf
    (stress.csv), then scheme_residual and backward_error.
    """

    sim: Simulation
    times: np.ndarray
    energy: np.ndarray
    elastic: np.ndarray
    relax: np.ndarray
    work: np.ndarray
    identity_residual: np.ndarray
    sigma_linf: np.ndarray     # (N+1, 3): max |sigma_xx|, |sigma_yy|, |sigma_xy|
    scheme_residual: np.ndarray
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

    The classified mesh, the Dirichlet set, the load vector and both
    constrained systems are built once, here; nothing is factored until
    the first solve. run(sample_steps) drives a whole run, as the CLI does,
    on one factor of the condensed system; its RunResult keeps the
    Simulation for verify_result, whose probes factor the plain system.
    """

    def __init__(self, cfg: RunConfig):
        validate_material(cfg.material)
        self.config = cfg
        self.material = cfg.material
        self.step_params = StepParams.from_material(cfg.material, cfg.tau)
        self.mesh, self.geom, self.dirichlet = prepare_mesh(cfg)
        self.load = load_vector(self.geom, cfg.bc)
        stiffness = assemble_stiffness(self.geom, self.dirichlet)
        self.system_plain = stiffness.system(self.material)
        self.system_eff = stiffness.system(self.step_params.condensed)
        self._factor = None  # (system, its factor) of the last system factored
        self._last = None    # (state, its Stress) of the last state produced

    def _factor_of(self, system: SparseSPD):
        """The factor of system: the one held, or built once the held one is freed."""
        if self._factor is None or self._factor[0] is not system:
            self._factor = None  # never hold two factors, not even while building one
            self._factor = (system, factorize(system))
        return self._factor[1]

    def _solve(self, system: SparseSPD, rhs, what: str,
               factored: SparseSPD) -> tuple[np.ndarray, SolveReport]:
        """Solve system on the factor of factored; if that is not accepted,
        on the factor of system itself."""
        b = system.reduce_rhs(rhs)
        x, rep = solve_spd(system, b, self._factor_of(factored))
        if not rep.converged and factored is not system:
            x, rep = solve_spd(system, b, self._factor_of(system))
        if not rep.converged:
            raise SolverError(f"{what} failed: backward error {rep.backward_error:.3e}, "
                              f"residual {rep.residual:.3e}")
        return x.reshape(-1, 2), rep

    def _equilibrium(self, phi, factored: SparseSPD) -> tuple[np.ndarray, Stress, SolveReport]:
        """equilibrium_solve, on the factor of factored."""
        C = self.step_params.C
        u, rep = self._solve(self.system_plain, tensor_load(self.geom, phi @ C) + self.load,
                             "equilibrium solve", factored)
        return u, stress(C, strain_field(self.geom, u), phi), rep

    def _stress_of(self, state: SimulationState) -> Stress:
        """Stress of state, remembered when state is the last one produced."""
        if self._last is not None and self._last[0] is state:
            return self._last[1]
        return stress(self.step_params.C, strain_field(self.geom, state.u), state.phi)

    def initial_state(self, phi0: np.ndarray | None = None) -> tuple[SimulationState, StepReport]:
        """Equilibrium displacement for the initial tensor field (default 0),
        solved on the condensed factor the steps use."""
        phi = zero_tensor_field(self.mesh) if phi0 is None else np.array(phi0, dtype=float)
        if phi.shape != (self.mesh.n_triangles, 3):
            raise ValueError(f"phi0 has shape {phi.shape}, expected {(self.mesh.n_triangles, 3)}")
        bad = np.argwhere(~np.isfinite(phi))
        if bad.size:
            t, c = bad[0]
            raise ValueError(f"phi0 is not finite at triangle {t}, component "
                             f"{('xx', 'yy', 'xy')[c]}: {phi[t, c]}")
        u, st, rep = self._equilibrium(phi, self.system_eff)
        report = diagnostics.energy(self.geom, self.material, u, phi, st, self.load)
        state = SimulationState(k=0, t=0.0, u=u, phi=phi, energy=report.total)
        self._last = (state, st)
        return state, StepReport(rep.backward_error, 0.0, 0.0, report,
                                 diagnostics.stress_components_linf(st.sigma))

    def step(self, state: SimulationState) -> tuple[SimulationState, StepReport]:
        m, sp = self.material, self.step_params
        k = state.k + 1
        st_prev = self._stress_of(state)
        rhs = tensor_load(self.geom, state.phi @ sp.drag) + self.load
        u, rep = self._solve(self.system_eff, rhs, f"displacement solve at step {k}",
                             self.system_eff)

        e = strain_field(self.geom, u)
        phi = e @ sp.update_strain + state.phi @ sp.update_prev
        st = stress(sp.C, e, phi)

        report = diagnostics.energy(self.geom, m, u, phi, st, self.load)
        new = SimulationState(k=k, t=k * sp.tau, u=u, phi=phi, energy=report.total)
        self._last = (new, st)
        return new, StepReport(
            backward_error=rep.backward_error,
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

        levels = np.empty((n + 1, 11))
        snapshots: list[SimulationState] = []
        pairs: dict[int, tuple[np.ndarray, SimulationState]] = {}

        state, rep = self.initial_state(phi0)
        for k in range(n + 1):
            en = rep.energy
            levels[k] = (state.t, en.total, en.elastic, en.relax, en.work, rep.identity_residual,
                         *rep.sigma_linf, rep.scheme_residual, rep.backward_error)
            if k == 0 or k == n or (cfg.cadence > 0 and k % cfg.cadence == 0):
                snapshots.append(state)
            if k == n:
                break
            phi_prev = state.phi
            state, rep = self.step(state)
            if state.k in sample:
                pairs[state.k] = (phi_prev, state)

        # RunResult's series in column order; sigma_linf is the block 6:9
        return RunResult(self, *levels.T[:6], levels[:, 6:9], *levels.T[9:], snapshots, pairs)


def default_sample_steps(n_steps: int) -> tuple[int, ...]:
    """Early, middle and final step, deduplicated, for gradient-flow probes."""
    return tuple(sorted({max(1, n_steps // 10), max(1, n_steps // 2), n_steps}))


def equilibrium_solve(sim: Simulation, phi) -> tuple[np.ndarray, Stress, SolveReport]:
    """Displacement minimizing the energy at a frozen tensor field phi, and
    the Stress of the state (u, phi).

    Solves the plain system of sim on its own factor with the right-hand
    side (C phi, e[v]) + l(v). The gradient-flow probes use it.
    """
    return sim._equilibrium(np.asarray(phi, dtype=float), sim.system_plain)


def prepare_mesh(cfg: RunConfig) -> tuple[Mesh, MeshGeometry, DirichletSet]:
    """The mesh of cfg classified by its gamma0, its geometry and its Dirichlet
    set: the checks of mesh and boundary a Simulation makes before it assembles.
    ValueError if an edge-connected group of triangles has fewer than two
    Dirichlet nodes, naming one of its other nodes."""
    mesh = classify_boundary(cfg.mesh.build(), cfg.gamma0)
    geom = MeshGeometry(mesh)
    dirichlet = build_dirichlet(mesh, cfg.bc.g)
    group = edge_groups(mesh)
    fixed = np.zeros(mesh.n_nodes, dtype=bool)
    fixed[dirichlet.nodes] = True
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
    return mesh, geom, dirichlet
