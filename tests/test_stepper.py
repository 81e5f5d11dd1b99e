"""Time stepper tests: homogeneous recursions with closed-form references,
a dense monolithic oracle for the split step, and run bookkeeping."""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import viscofem.stepper
from viscofem.config import preset_config
from viscofem.fields import AffineMap, BoundaryData, strain_field
from viscofem.diagnostics import stress_components_linf, verify_result
from viscofem.mesh import MeshGeometry, build_unit_square, classify_boundary
from viscofem.stepper import (
    _MAX_STEPS,
    MeshSpec,
    RunConfig,
    Simulation,
    SimulationState,
    SolverError,
    count_steps,
    default_sample_steps,
    equilibrium_solve,
)
from viscofem.tensors import Material, stress

from oracles import (MATERIALS, TAUS, delaunay_mesh, interpolate, left_arc, monolithic_step,
                     save_mesh, stress_of)

EXAMPLES = settings(max_examples=40, deadline=None, derandomize=True, database=None)
PULL = AffineMap([[1.0, 0.0], [0.0, 0.0]], [0.0, 0.0])

# meshes with a part the Dirichlet nodes do not hold, in the text format:
# two disjoint unit squares, only the first clamped on its left side, and a
# bow-tie whose triangles share only node 0, one of them clamped
TWO_SQUARES_MESH = (
    "nodes 8\n0 0\n1 0\n1 1\n0 1\n2 0\n3 0\n3 1\n2 1\n"
    "triangles 4\n0 1 2\n0 2 3\n4 5 6\n4 6 7\n"
    "boundary 8\n0 1 1\n1 2 1\n2 3 1\n3 0 0\n4 5 1\n5 6 1\n6 7 1\n7 4 1\n"
)
BOW_TIE_MESH = (
    "nodes 5\n0 0\n1 0\n0 1\n-1 0\n0 -1\n"
    "triangles 2\n0 1 2\n0 3 4\n"
    "boundary 6\n0 1 0\n1 2 0\n2 0 0\n0 3 1\n3 4 1\n4 0 1\n"
)


def make_config(n=4, gamma0="top", alpha=1.0, tau=0.01, t_end=0.05,
                g=None, f=(0.0, 0.0), lam=1.0, mu=1.0, eta=1.0, cadence=0):
    bd = BoundaryData(g=g if g is not None else AffineMap.zero(),
                      q=[0.0, 0.0], f=list(f))
    return RunConfig(
        material=Material(lam=lam, mu=mu, eta=eta, alpha=alpha),
        tau=tau,
        t_end=t_end,
        mesh=MeshSpec(n=n),
        gamma0=gamma0,
        bc=bd,
        cadence=cadence,
    )


def voigt_elasticity(lam, mu):
    return np.array(
        [
            [lam + 2 * mu, lam, 0.0],
            [lam, lam + 2 * mu, 0.0],
            [0.0, 0.0, 2 * mu],
        ]
    )


class TestCountSteps:
    def test_values(self):
        assert count_steps(1.0, 0.01) == 100
        assert count_steps(2.0, 0.01) == 200
        assert count_steps(1.0, 0.3) == 3
        assert count_steps(1.0, 1.0) == 1

    def test_inexact_binary_ratio(self):
        # 0.2/0.1 is 1.999... in floats; the count must still be 2
        assert count_steps(0.2, 0.1) == 2
        assert count_steps(0.3, 0.1) == 3
        assert count_steps(0.7, 0.1) == 7

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            count_steps(1.0, 0.0)
        with pytest.raises(ValueError):
            count_steps(1.0, -0.1)
        with pytest.raises(ValueError):
            count_steps(0.5, 0.6)
        # finite, but more steps than a run can record
        with pytest.raises(ValueError, match="more than a run can hold"):
            count_steps(1e300, 0.01)
        with pytest.raises(ValueError, match="more than a run can hold"):
            count_steps(1e15, 1.0)
        with pytest.raises(ValueError, match="more than a run can hold"):
            count_steps(_MAX_STEPS + 1.0, 1.0)
        assert count_steps(float(_MAX_STEPS), 1.0) == _MAX_STEPS


class TestZeroData:
    def test_everything_stays_zero(self):
        cfg = make_config(n=3, t_end=0.03)
        result = Simulation(cfg).run()
        assert_allclose(result.energy, 0.0, atol=0)
        assert_allclose(result.sigma_linf, 0.0, atol=0)
        assert_allclose(result.identity_residual, 0.0, atol=0)
        assert_allclose(result.scheme_residual, 0.0, atol=0)
        for state in result.snapshots:
            assert_allclose(state.u, 0.0, atol=0)
            assert_allclose(state.phi, 0.0, atol=0)
        # zero right-hand sides short-circuit the solver
        assert np.all(result.backward_error == 0.0)


class TestHomogeneousRecursion:
    """All-Dirichlet uniaxial stretch on a single cell: strain is pinned to
    diag(1, 0), so the tensor update is a scalar recursion the test can run
    on its own in Voigt coordinates."""

    LAM, MU, ETA, ALPHA, TAU = 1.3, 0.8, 1.7, 0.7, 0.05

    def oracle_states(self, steps):
        Cm = voigt_elasticity(self.LAM, self.MU)
        beta0 = 2 * self.MU + self.ETA / self.TAU + self.ALPHA
        beta1 = 2 * self.LAM + beta0
        trace_part = np.array([1.0, 1.0, 0.0])

        def rinv(v):
            return (v - (self.LAM / beta1) * (v[0] + v[1]) * trace_part) / beta0

        e = np.array([1.0, 0.0, 0.0])
        phi = np.zeros(3)
        history = [phi.copy()]
        for _ in range(steps):
            phi = rinv(Cm @ e + (self.ETA / self.TAU) * phi)
            history.append(phi.copy())
        return Cm, e, history

    def test_fifty_steps_match_scalar_recursion(self):
        steps = 50
        cfg = make_config(n=1, gamma0="all", g=PULL, lam=self.LAM, mu=self.MU,
                          eta=self.ETA, alpha=self.ALPHA, tau=self.TAU,
                          t_end=steps * self.TAU)
        sim = Simulation(cfg)
        Cm, e, history = self.oracle_states(steps)
        exact_u = interpolate(sim.mesh, PULL)

        state, _ = sim.initial_state()
        for k in range(steps + 1):
            assert_allclose(state.u, exact_u, atol=1e-12)
            assert_allclose(state.phi, np.tile(history[k], (2, 1)), atol=1e-12)
            sigma = Cm @ (e - history[k])
            sigma_linf = stress_components_linf(stress_of(sim.geom, sim.material, state.u, state.phi).sigma)
            assert_allclose(sigma_linf, np.abs(sigma), atol=1e-12)
            if k < steps:
                state, _ = sim.step(state)


class TestFixedPoints:
    """phi* = (alpha I + C)^-1 C e is the stationary point of the update;
    for alpha = 0 the stress relaxes to zero."""

    def final_state(self, alpha):
        cfg = make_config(n=1, gamma0="all", g=PULL, alpha=alpha,
                          tau=0.1, t_end=50.0)
        return Simulation(cfg).run().final

    @pytest.mark.parametrize("alpha,sigma11", [(1.0, 11.0 / 15.0), (2.0, 7.0 / 6.0)])
    def test_converges_to_analytic_fixed_point(self, alpha, sigma11):
        Cm = voigt_elasticity(1.0, 1.0)
        e = np.array([1.0, 0.0, 0.0])
        phi_star = np.linalg.solve(alpha * np.eye(3) + Cm, Cm @ e)
        sigma_star = Cm @ (e - phi_star)
        assert sigma_star[0] == pytest.approx(sigma11, abs=1e-12)

        state = self.final_state(alpha)
        assert_allclose(state.phi, np.tile(phi_star, (2, 1)), atol=1e-10)
        geom = MeshGeometry(classify_boundary(build_unit_square(1), "all"))
        m = Material(lam=1.0, mu=1.0, eta=1.0, alpha=alpha)
        sigma_linf = stress_components_linf(stress_of(geom, m, state.u, state.phi).sigma)
        assert_allclose(sigma_linf, np.abs(sigma_star), atol=1e-10)

    def test_alpha_zero_relaxes_completely(self):
        state = self.final_state(0.0)
        Cm = voigt_elasticity(1.0, 1.0)
        assert_allclose(state.phi, np.tile([1.0, 0.0, 0.0], (2, 1)), atol=1e-10)
        geom = MeshGeometry(classify_boundary(build_unit_square(1), "all"))
        m = Material(lam=1.0, mu=1.0, eta=1.0, alpha=0.0)
        assert stress_components_linf(stress_of(geom, m, state.u, state.phi).sigma).max() <= 1e-10


class TestMonolithicOracle:
    """The split step (condensed displacement solve, then closed-form tensor
    update) must reproduce the coupled system solved in one piece."""

    def compare_one_step(self, cfg, phi0):
        sim = Simulation(cfg)
        state0, _ = sim.initial_state(phi0)
        state1, _ = sim.step(state0)
        m = cfg.material
        f = np.asarray(cfg.bc.f, dtype=float)
        u_ref, phi_ref = monolithic_step(
            sim.mesh.nodes, sim.mesh.triangles,
            sim.dirichlet.nodes, sim.dirichlet.values,
            m.lam, m.mu, m.eta, m.alpha, cfg.tau,
            phi_prev=state0.phi,
            f=f if np.any(f) else None,
        )
        assert_allclose(state1.u, u_ref, atol=1e-12)
        assert_allclose(state1.phi, phi_ref, atol=1e-12)

    def test_stretch_with_seeded_tensor_field(self):
        cfg = make_config(n=2, gamma0="sides", g=PULL, lam=1.4, mu=0.9,
                          eta=1.2, alpha=1.5, tau=0.02, t_end=0.02)
        phi0 = 0.2 * np.random.default_rng(7).standard_normal((8, 3))
        self.compare_one_step(cfg, phi0)

    def test_body_force(self):
        cfg = make_config(n=2, gamma0="top", f=(0.0, -1.0), alpha=0.5,
                          tau=0.02, t_end=0.02)
        self.compare_one_step(cfg, None)

    def test_alpha_zero_lam_near_minus_mu_slow_rate(self):
        # eta/tau = 1e-3: the condensed and drag pairs are far below C
        cfg = make_config(n=2, gamma0="sides", g=PULL, lam=-0.9, mu=1.0,
                          eta=0.01, alpha=0.0, tau=10.0, t_end=10.0)
        phi0 = 0.2 * np.random.default_rng(8).standard_normal((8, 3))
        self.compare_one_step(cfg, phi0)

    @pytest.mark.parametrize("eta", [1.0, 10.0])
    def test_alpha_zero_lam_near_minus_mu_fast_rate(self, eta):
        # eta/tau = 1e4 and 1e5: the drag term makes the right-hand side
        # up to 1e5 times the elastic one
        cfg = make_config(n=2, gamma0="sides", g=PULL, lam=-0.9, mu=1.0,
                          eta=eta, alpha=0.0, tau=1e-4, t_end=1e-4)
        phi0 = 0.2 * np.random.default_rng(8).standard_normal((8, 3))
        self.compare_one_step(cfg, phi0)


class TestDirichletValues:
    """The constrained systems have unit rows and columns at the Dirichlet
    dofs and the factor does not pivot rows, so every solve returns the
    prescribed values there bitwise; nothing writes them afterwards. A CG
    pass on the plain system with the condensed factor leaves them as they
    are: its residual and search direction are zero at those dofs."""

    @pytest.mark.parametrize("case", [("example1", 4), ("example1", 16), ("example2", 4),
                                      ("example2", 16), "mesh file"])
    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_solves_carry_the_prescribed_values(self, tmp_path, case, alpha):
        if case == "mesh file":
            path = tmp_path / "polygon.mesh"
            save_mesh(left_arc(delaunay_mesh(n=5, seed=3)), path)
            cfg = replace(make_config(alpha=alpha, g=AffineMap([[1.0, 0.5], [0.0, -2.0]], [0.3, 0.1])),
                          mesh=MeshSpec(path=str(path)), gamma0="file")
        else:
            cfg = preset_config(case[0], alpha=alpha)
            cfg = replace(cfg, mesh=replace(cfg.mesh, n=case[1]))
        sim = Simulation(cfg)
        state, _ = sim.initial_state()
        assert np.array_equal(state.u[sim.dirichlet.nodes], sim.dirichlet.values)
        rng = np.random.default_rng(17)
        for system, factored in ((sim.system_plain, sim.system_eff),
                                 (sim.system_plain, sim.system_plain),
                                 (sim.system_eff, sim.system_eff)):
            for _ in range(3):
                u, _ = sim._solve(system, rng.standard_normal(sim.geom.n_dofs), "seeded solve",
                                  factored)
                assert np.array_equal(u[sim.dirichlet.nodes], sim.dirichlet.values)


class TestSubstitutionEquivalence:
    def test_displacement_re_solves_plain_system(self):
        # with the updated tensor field on the right-hand side, the plain
        # elasticity system returns exactly the displacement the condensed
        # system produced
        cfg = make_config(n=5, gamma0="sides", g=PULL, alpha=1.0,
                          tau=0.01, t_end=0.03)
        sim = Simulation(cfg)
        state, _ = sim.initial_state()
        for _ in range(cfg.n_steps):
            state, _ = sim.step(state)
        u_re, _, _ = equilibrium_solve(sim, state.phi)
        assert_allclose(u_re, state.u, atol=1e-10)


class TestRunBookkeeping:
    def small_run(self, **kw):
        cfg = make_config(n=4, gamma0="sides", g=PULL, t_end=0.1, tau=0.01, **kw)
        return cfg, Simulation(cfg)

    def test_series_shapes_and_snapshot_schedule(self):
        cfg, sim = self.small_run(cadence=3)
        result = sim.run(sample_steps=(1, 5, 10))
        n = cfg.n_steps
        assert n == 10
        assert_allclose(result.times, 0.01 * np.arange(n + 1), atol=1e-14)
        for series in (result.energy, result.elastic, result.relax, result.work,
                       result.identity_residual, result.scheme_residual,
                       result.backward_error):
            assert series.shape == (n + 1,)
        assert result.sigma_linf.shape == (n + 1, 3)
        assert [s.k for s in result.snapshots] == [0, 3, 6, 9, 10]
        assert result.final is result.snapshots[-1]
        assert result.final.k == n

    @pytest.mark.parametrize("preset", ["example1", "example2"])
    def test_series_hold_every_report_field(self, preset):
        cfg = preset_config(preset)
        cfg = replace(cfg, mesh=replace(cfg.mesh, n=4), t_end=5 * cfg.tau)
        sim = Simulation(cfg)
        result = sim.run()
        state, rep = sim.initial_state()
        for k in range(cfg.n_steps + 1):
            if k:
                state, rep = sim.step(state)
            assert result.times[k] == state.t == k * cfg.tau
            assert np.array_equal(result.sigma_linf[k], rep.sigma_linf)
            for series, value in ((result.energy, rep.energy.total),
                                  (result.elastic, rep.energy.elastic),
                                  (result.relax, rep.energy.relax),
                                  (result.work, rep.energy.work),
                                  (result.identity_residual, rep.identity_residual),
                                  (result.scheme_residual, rep.scheme_residual),
                                  (result.backward_error, rep.backward_error)):
                assert series[k] == value, k

    def test_snapshot_energies_match_series(self):
        _, sim = self.small_run(cadence=4)
        result = sim.run()
        for state in result.snapshots:
            assert state.energy == result.energy[state.k]

    def test_sampled_pairs(self):
        _, sim = self.small_run()
        result = sim.run(sample_steps=(1, 5, 10))
        assert sorted(result.sampled_pairs) == [1, 5, 10]
        for k, (phi_prev, state) in result.sampled_pairs.items():
            assert state.k == k
            assert state.t == pytest.approx(0.01 * k)
            assert phi_prev.shape == (sim.mesh.n_triangles, 3)

    def test_sample_steps_validated(self):
        _, sim = self.small_run()
        with pytest.raises(ValueError, match="sample"):
            sim.run(sample_steps=(0,))
        with pytest.raises(ValueError, match="sample"):
            sim.run(sample_steps=(11,))

    @pytest.mark.parametrize("steps,named", [((5, 2.7), "[2.7]"), (("3", 5), "['3']"),
                                             (np.array([2.0, 5.0]), "2.0")])
    def test_sample_steps_must_be_integers(self, steps, named):
        # neither truncated (2.7 -> 2) nor coerced ('3' -> 3)
        _, sim = self.small_run()
        with pytest.raises(ValueError, match=re.escape(named) + ".* are not integers"):
            sim.run(sample_steps=steps)

    def test_integer_array_of_sample_steps(self):
        _, sim = self.small_run()
        result = sim.run(sample_steps=np.array([1, 5], dtype=np.int64))
        assert sorted(result.sampled_pairs) == [1, 5]

    def test_default_sample_steps(self):
        assert default_sample_steps(100) == (10, 50, 100)
        assert default_sample_steps(200) == (20, 100, 200)
        assert default_sample_steps(1) == (1,)
        assert default_sample_steps(3) == (1, 3)

    def test_initial_tensor_field_is_kept(self):
        _, sim = self.small_run()
        phi0 = 0.1 * np.random.default_rng(3).standard_normal((sim.mesh.n_triangles, 3))
        result = sim.run(phi0=phi0)
        assert_allclose(result.snapshots[0].phi, phi0, atol=0)

    def test_bad_initial_shape_rejected(self):
        _, sim = self.small_run()
        with pytest.raises(ValueError, match="shape"):
            sim.initial_state(np.zeros((3, 3)))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_initial_field_rejected(self, bad):
        _, sim = self.small_run()
        phi0 = np.zeros((sim.mesh.n_triangles, 3))
        phi0[5, 2] = bad
        phi0[7, 0] = bad
        with pytest.raises(ValueError, match=r"phi0 is not finite at triangle 5, component xy"):
            sim.initial_state(phi0)
        assert sim._factor is None  # rejected before any solve


class TestValidation:
    def test_file_labels_mode(self, tmp_path):
        labeled = classify_boundary(build_unit_square(3), "top")
        path = tmp_path / "labeled.mesh"
        save_mesh(labeled, path)
        cfg = make_config(t_end=0.02)
        cfg = RunConfig(material=cfg.material, tau=cfg.tau, t_end=cfg.t_end,
                        mesh=MeshSpec(path=str(path)), gamma0="file", bc=cfg.bc,
                        cadence=0)
        result = Simulation(cfg).run()
        assert result.mesh.n_nodes == 16

    def test_file_labels_require_dirichlet_edges(self, tmp_path):
        path = tmp_path / "unlabeled.mesh"
        save_mesh(build_unit_square(3), path)
        cfg = make_config(t_end=0.02)
        cfg = RunConfig(material=cfg.material, tau=cfg.tau, t_end=cfg.t_end,
                        mesh=MeshSpec(path=str(path)), gamma0="file", bc=cfg.bc,
                        cadence=0)
        with pytest.raises(ValueError, match="GAMMA0"):
            Simulation(cfg)

    @pytest.mark.parametrize("text,message", [
        (TWO_SQUARES_MESH, "mesh part at node 4 (triangle 2 and the triangles edge-connected "
                           "to it) has 0 Dirichlet node(s)"),
        (BOW_TIE_MESH, "mesh part at node 3 (triangle 1 and the triangles edge-connected "
                       "to it) has 1 Dirichlet node(s)"),
    ])
    def test_part_not_held_rejected(self, tmp_path, text, message):
        # both plain systems are singular in exact arithmetic; the bow-tie's
        # factor meets an exactly zero pivot, but the two squares' does not,
        # and its solves pass the backward-error test with energies of 1e16
        path = tmp_path / "loose.mesh"
        path.write_text(text)
        cfg = make_config(t_end=0.02)
        cfg = RunConfig(material=cfg.material, tau=cfg.tau, t_end=cfg.t_end,
                        mesh=MeshSpec(path=str(path)), gamma0="file", bc=cfg.bc,
                        cadence=0)
        with pytest.raises(ValueError, match=re.escape(message)):
            Simulation(cfg)

    @pytest.mark.parametrize("spec", [MeshSpec(), MeshSpec(n=3, path="m.txt")])
    def test_mesh_spec_needs_one_source(self, spec):
        with pytest.raises(ValueError, match="exactly one of n or path"):
            spec.build()

    def test_inadmissible_material_rejected(self):
        cfg = make_config(mu=-1.0)
        with pytest.raises(ValueError, match="mu"):
            Simulation(cfg)

    def test_solver_failure_raises(self):
        # a NaN body force reaches the solver through RunConfig, which the
        # config-file parser would have rejected
        cfg = make_config(n=4, gamma0="top", f=(0.0, np.nan), t_end=0.02)
        sim = Simulation(cfg)
        with pytest.raises(SolverError, match="equilibrium solve failed"):
            sim.initial_state()


class TestDeterminism:
    def test_step_is_pure(self):
        cfg = make_config(n=4, gamma0="sides", g=PULL, t_end=0.02)
        sim = Simulation(cfg)
        state, _ = sim.initial_state()
        u_before = state.u.copy()
        phi_before = state.phi.copy()
        first, rep_first = sim.step(state)
        second, rep_second = sim.step(state)
        assert np.array_equal(state.u, u_before)
        assert np.array_equal(state.phi, phi_before)
        assert np.array_equal(first.u, second.u)
        assert np.array_equal(first.phi, second.phi)
        assert first.energy == second.energy
        assert rep_first.backward_error == rep_second.backward_error


class TestStrainOnce:
    def test_one_strain_per_step(self, monkeypatch):
        from viscofem import stepper

        calls = []

        def counted(geom, u):
            calls.append(1)
            return strain_field(geom, u)

        monkeypatch.setattr(stepper, "strain_field", counted)
        cfg = make_config(n=3, gamma0="sides", g=PULL, t_end=0.05)
        Simulation(cfg).run()
        assert len(calls) == cfg.n_steps + 1  # one per step, one for the initial state

    def test_one_stress_per_state(self, monkeypatch):
        from viscofem import stepper

        calls = []

        def counted(C, e, phi):
            calls.append(1)
            return stress(C, e, phi)

        monkeypatch.setattr(stepper, "stress", counted)
        cfg = make_config(n=3, gamma0="sides", g=PULL, t_end=0.05)
        Simulation(cfg).run()
        assert len(calls) == cfg.n_steps + 1  # one per step, one for the initial state

    def test_state_from_elsewhere_gives_the_same_report(self):
        cfg = make_config(n=4, gamma0="sides", g=PULL, t_end=0.02)
        sim = Simulation(cfg)
        state, _ = sim.initial_state()
        first, _ = sim.step(state)
        cached, rep_cached = sim.step(first)
        # a copy of first, which this Simulation did not produce: its strain is recomputed
        copy = SimulationState(first.k, first.t, first.u.copy(), first.phi.copy(), first.energy)
        other, rep_other = sim.step(copy)
        assert np.array_equal(other.u, cached.u) and np.array_equal(other.phi, cached.phi)
        assert rep_other.identity_residual == rep_cached.identity_residual
        assert rep_other.scheme_residual == rep_cached.scheme_residual
        assert rep_other.energy == rep_cached.energy
        assert np.array_equal(rep_other.sigma_linf, rep_cached.sigma_linf)
        assert rep_other.backward_error == rep_cached.backward_error


def count_factors(monkeypatch, sim):
    """Record (system, whether sim held no factor) at every factorize call."""
    calls = []
    factorize = viscofem.stepper.factorize

    def counted(system):
        calls.append((system, sim._factor is None))
        return factorize(system)

    monkeypatch.setattr(viscofem.stepper, "factorize", counted)
    return calls


class TestFactorLifetime:
    def test_one_factor_built_on_first_solve(self, monkeypatch):
        cfg = make_config(n=3, gamma0="sides", g=PULL, t_end=0.02)
        sim = Simulation(cfg)
        calls = count_factors(monkeypatch, sim)
        assert sim._factor is None  # set-up factors nothing
        state, _ = sim.initial_state()
        assert sim._factor[0] is sim.system_eff  # the plain system solved on it by CG
        lu = sim._factor[1]
        sim.step(state)
        sim.step(state)
        assert sim._factor[1] is lu
        equilibrium_solve(sim, state.phi)  # a probe factors the plain system
        assert sim._factor[0] is sim.system_plain
        assert calls == [(sim.system_eff, True), (sim.system_plain, True)]

    @pytest.mark.parametrize("preset", ["example1", "example2"])
    def test_run_factors_once(self, monkeypatch, preset):
        cfg = preset_config(preset)
        cfg = replace(cfg, mesh=replace(cfg.mesh, n=4), t_end=0.05)
        sim = Simulation(cfg)
        calls = count_factors(monkeypatch, sim)
        sim.run(sample_steps=(1, 5))
        assert calls == [(sim.system_eff, True)]

    def test_second_verify_factors_nothing(self, monkeypatch):
        cfg = make_config(n=3, gamma0="sides", g=PULL, t_end=0.05)
        result = Simulation(cfg).run(sample_steps=(1, 5))
        assert result.sim._factor[0] is result.sim.system_eff
        calls = count_factors(monkeypatch, result.sim)
        first = verify_result(result, directions=2)
        assert calls == [(result.sim.system_plain, True)]  # the probes' one factor
        second = verify_result(result, directions=2)
        assert len(calls) == 1
        assert first == second and first.ok


class TestInitialStateByCG:
    """The initial state solves the plain system by CG on the condensed
    factor; it must be as accurate as a direct solve on the plain factor."""

    @EXAMPLES
    @given(m=MATERIALS, tau=TAUS, preset=st.sampled_from(["example1", "example2"]))
    def test_matches_direct_solve(self, m, tau, preset):
        cfg = preset_config(preset)
        sim = Simulation(replace(cfg, material=m, tau=tau, t_end=tau,
                                 mesh=replace(cfg.mesh, n=4)))
        phi0 = 0.2 * np.random.default_rng(5).standard_normal((sim.mesh.n_triangles, 3))
        state, rep = sim.initial_state(phi0)
        u, _, _ = equilibrium_solve(sim, phi0)  # factors the plain system
        assert rep.backward_error <= 1e-14
        assert np.abs(state.u - u).max() <= 1e-10 * np.abs(u).max()

    def test_beyond_the_pass_cap_factors_the_plain_system(self, monkeypatch):
        # the largest plain-to-condensed ratio is 1 + 2 (lam + mu) / (eta / tau),
        # about 2000: CG would need 58 passes at n = 16
        cfg = preset_config("example2")
        cfg = replace(cfg, material=Material(lam=100.0, mu=1.0, eta=1.0, alpha=0.0),
                      tau=10.0, t_end=20.0, mesh=replace(cfg.mesh, n=16))
        sim = Simulation(cfg)
        calls = count_factors(monkeypatch, sim)
        result = sim.run()
        assert calls == [(sim.system_eff, True), (sim.system_plain, True),
                         (sim.system_eff, True)]
        assert result.backward_error.max() <= 1e-14
        direct, _, _ = equilibrium_solve(sim, result.snapshots[0].phi)
        assert np.array_equal(result.snapshots[0].u, direct)


class TestEquilibriumPatch:
    def test_matching_tensor_field_kills_the_stress(self):
        g = AffineMap([[2.0, 0.5], [0.5, -1.0]], [0.3, -0.2])
        sim = Simulation(make_config(n=3, gamma0="all", g=g, lam=1.1, mu=0.7, eta=1.0, alpha=0.4))
        # e[g] is the symmetric part of the matrix; here it equals the matrix
        phi = np.tile([2.0, -1.0, 0.5], (sim.mesh.n_triangles, 1))
        u, st, _ = equilibrium_solve(sim, phi)
        assert_allclose(u, interpolate(sim.mesh, g), atol=1e-10)
        assert stress_components_linf(st.sigma).max() <= 1e-10
        assert np.array_equal(st.sigma, stress_of(sim.geom, sim.material, u, phi).sigma)
