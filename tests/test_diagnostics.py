"""Diagnostics tests: energy bookkeeping, the per-step identity, the tensor
update residual, stress norms, and the gradient-flow probe."""

from dataclasses import fields, replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import viscofem.stepper
from viscofem.diagnostics import (
    energy,
    energy_identity_residual,
    energy_identity_terms,
    gradient_flow_check,
    psi_inner,
    random_direction,
    reduced_gradient,
    scheme_residual,
    stress_components_linf,
    verify_result,
)
from viscofem.assembly import load_vector
from viscofem.config import preset_config
from viscofem.fields import AffineMap, BoundaryData, zero_tensor_field
from viscofem.mesh import MeshGeometry, build_unit_square, classify_boundary
from viscofem.stepper import MeshSpec, Simulation, SimulationState, StepParams, default_sample_steps
from viscofem.tensors import Material

from oracles import delaunay_mesh, interpolate, left_arc, save_mesh, stress_of, zero_displacement
from test_stepper import PULL, make_config

UNIT = Material(lam=1.0, mu=1.0, eta=1.0, alpha=0.0)
NO_LOAD = BoundaryData(g=AffineMap.zero(), q=[0.0, 0.0], f=[0.0, 0.0])


def unit_square_geometry(n=4):
    mesh = classify_boundary(build_unit_square(n), "all")
    return mesh, MeshGeometry(mesh)


class TestEnergyValues:
    def test_uniaxial_stretch_elastic_energy(self):
        # e = diag(1, 0), C e = diag(3, 1): E = 0.5 * e:Ce * |Omega| = 3/2
        mesh, geom = unit_square_geometry()
        u = interpolate(mesh, PULL)
        phi = zero_tensor_field(mesh)
        report = energy(geom, UNIT, u, phi, stress_of(geom, UNIT, u, phi),
                        load_vector(geom, NO_LOAD))
        assert report.elastic == pytest.approx(1.5, abs=1e-13)
        assert report.relax == 0.0
        assert report.work == 0.0
        assert report.total == pytest.approx(1.5, abs=1e-13)

    def test_tensor_field_terms(self):
        # u = 0 against phi = diag(1, 0): elastic sees the gap -phi,
        # the relaxation term sees phi itself
        mesh, geom = unit_square_geometry()
        m = replace(UNIT, alpha=2.0)
        phi = np.tile([1.0, 0.0, 0.0], (mesh.n_triangles, 1))
        u = zero_displacement(mesh)
        report = energy(geom, m, u, phi, stress_of(geom, m, u, phi), load_vector(geom, NO_LOAD))
        assert report.elastic == pytest.approx(1.5, abs=1e-13)
        assert report.relax == pytest.approx(1.0, abs=1e-13)
        assert report.total == pytest.approx(2.5, abs=1e-13)

    def test_recomposition_is_exact(self):
        cfg = make_config(n=4, gamma0="top", f=(0.0, -1.0), t_end=0.03)
        sim = Simulation(cfg)
        state, rep = sim.initial_state()
        r = rep.energy
        assert r.total == r.elastic + r.relax - r.work

    def test_equilibrium_energy_is_minus_half_the_work(self):
        # at equilibrium with phi = 0 the bilinear form equals the load
        # functional, so E = -l(u)/2
        cfg = make_config(n=8, gamma0="top", f=(0.0, -1.0), t_end=0.02)
        sim = Simulation(cfg)
        state, rep = sim.initial_state()
        # summed pairwise, as solver.dot sums, so the last check is exact
        work = (load_vector(sim.geom, cfg.bc) * state.u.ravel()).sum()
        assert rep.energy.total == pytest.approx(-0.5 * work, abs=1e-10)
        assert rep.energy.work == pytest.approx(work, abs=0)

    def test_run_series_matches_fresh_evaluation(self):
        cfg = make_config(n=4, gamma0="sides", g=PULL, t_end=0.05, cadence=1)
        sim = Simulation(cfg)
        result = sim.run()
        for state in result.snapshots:
            fresh = energy(sim.geom, sim.material, state.u, state.phi,
                           stress_of(sim.geom, sim.material, state.u, state.phi),
                           load_vector(sim.geom, cfg.bc))
            assert result.energy[state.k] == pytest.approx(fresh.total, abs=1e-14)


class TestEnergyIdentity:
    def consecutive_states(self, steps=4, alpha=1.0):
        cfg = make_config(n=4, gamma0="sides", g=PULL, alpha=alpha,
                          t_end=steps * 0.01)
        sim = Simulation(cfg)
        state, _ = sim.initial_state()
        states = [state]
        for _ in range(steps):
            state, _ = sim.step(state)
            states.append(state)
        return sim, states

    def test_residual_vanishes_on_real_steps(self):
        sim, states = self.consecutive_states()
        for prev, curr in zip(states, states[1:]):
            st_prev = stress_of(sim.geom, sim.material, prev.u, prev.phi)
            st = stress_of(sim.geom, sim.material, curr.u, curr.phi)
            r = energy_identity_residual(sim.geom, sim.material, 0.01, prev, curr, st_prev, st)
            assert r <= 1e-10

    def test_terms_have_the_right_signs(self):
        sim, states = self.consecutive_states(alpha=2.0)
        for prev, curr in zip(states, states[1:]):
            dE, visc, relax_extra, elastic_extra = energy_identity_terms(
                sim.geom, sim.material, 0.01, prev, curr,
                stress_of(sim.geom, sim.material, prev.u, prev.phi),
                stress_of(sim.geom, sim.material, curr.u, curr.phi))
            assert visc >= 0.0
            assert relax_extra >= 0.0
            assert elastic_extra >= 0.0
            # the decrement covers the viscous dissipation with room to spare
            assert -dE >= visc - 1e-10

    def test_detects_a_corrupted_state(self):
        sim, states = self.consecutive_states()
        prev, curr = states[2], states[3]
        tampered = SimulationState(k=curr.k, t=curr.t, u=curr.u,
                                   phi=curr.phi + 1e-3, energy=curr.energy)
        st_prev = stress_of(sim.geom, sim.material, prev.u, prev.phi)
        st = stress_of(sim.geom, sim.material, tampered.u, tampered.phi)
        assert energy_identity_residual(
            sim.geom, sim.material, 0.01, prev, tampered, st_prev, st) > 1e-6

    def test_zero_data_identity_is_exact(self):
        sim, _ = self.consecutive_states()
        zero = SimulationState(k=0, t=0.0, u=zero_displacement(sim.mesh),
                               phi=zero_tensor_field(sim.mesh), energy=0.0)
        also_zero = SimulationState(k=1, t=0.01, u=zero.u, phi=zero.phi, energy=0.0)
        st = stress_of(sim.geom, sim.material, zero.u, zero.phi)
        assert energy_identity_residual(sim.geom, sim.material, 0.01, zero, also_zero, st, st) == 0.0


class TestSchemeResidual:
    def test_vanishes_on_real_steps(self):
        cfg = make_config(n=4, gamma0="sides", g=PULL, t_end=0.03)
        sim = Simulation(cfg)
        step = StepParams.from_material(sim.material, cfg.tau)
        state, _ = sim.initial_state()
        for _ in range(cfg.n_steps):
            prev_phi = state.phi
            state, _ = sim.step(state)
            sigma = stress_of(sim.geom, sim.material, state.u, state.phi).sigma
            assert scheme_residual(sim.material, step, state.phi, prev_phi, sigma) <= 1e-13

    def test_detects_a_corrupted_update(self):
        cfg = make_config(n=4, gamma0="sides", g=PULL, t_end=0.02)
        sim = Simulation(cfg)
        step = StepParams.from_material(sim.material, cfg.tau)
        state, _ = sim.initial_state()
        prev_phi = state.phi
        state, _ = sim.step(state)
        sigma = stress_of(sim.geom, sim.material, state.u, state.phi + 1e-3).sigma
        assert scheme_residual(sim.material, step, state.phi + 1e-3, prev_phi, sigma) > 1e-2


class TestStressNorms:
    def test_uniaxial_values(self):
        mesh, geom = unit_square_geometry()
        u = interpolate(mesh, PULL)
        linf = stress_components_linf(stress_of(geom, UNIT, u, zero_tensor_field(mesh)).sigma)
        assert linf[0] == pytest.approx(3.0, abs=1e-12)
        assert linf[1] == pytest.approx(1.0, abs=1e-12)
        assert linf[2] == pytest.approx(0.0, abs=1e-12)

    def test_norm_is_even(self):
        # an overshooting tensor field flips the stress sign; the norm
        # must report magnitudes
        mesh, geom = unit_square_geometry()
        u = interpolate(mesh, PULL)
        phi = np.tile([2.0, 0.0, 0.0], (mesh.n_triangles, 1))
        assert_allclose(stress_components_linf(stress_of(geom, UNIT, u, phi).sigma),
                        [3.0, 1.0, 0.0], atol=1e-12)

    def test_matching_tensor_field_gives_zero(self):
        mesh, geom = unit_square_geometry()
        u = interpolate(mesh, PULL)
        phi = np.tile([1.0, 0.0, 0.0], (mesh.n_triangles, 1))
        assert stress_components_linf(stress_of(geom, UNIT, u, phi).sigma).max() <= 1e-12


class TestGradientFlowProbe:
    def test_random_directions_are_normalized(self):
        _, geom = unit_square_geometry()
        rng = np.random.default_rng(11)
        for _ in range(3):
            psi = random_direction(geom, rng)
            assert psi_inner(geom, psi, psi) == pytest.approx(1.0, abs=1e-12)

    def test_identity_holds_on_a_real_pair(self):
        cfg = make_config(n=3, gamma0="sides", g=PULL, alpha=1.0, t_end=0.02)
        sim = Simulation(cfg)
        state, _ = sim.initial_state()
        prev_phi = state.phi
        state, _ = sim.step(state)
        rng = np.random.default_rng(5)
        gradient = reduced_gradient(sim, state.phi)
        for _ in range(3):
            psi = random_direction(sim.geom, rng)
            check = gradient_flow_check(sim, state.phi, prev_phi, gradient, psi)
            assert check.flow_error <= 1e-6
            assert check.derivative_error <= 1e-6

    def test_detects_a_pair_that_is_not_a_step(self):
        cfg = make_config(n=3, gamma0="sides", g=PULL, alpha=1.0, t_end=0.02)
        sim = Simulation(cfg)
        state, _ = sim.initial_state()
        prev_phi = state.phi
        state, _ = sim.step(state)
        rng = np.random.default_rng(6)
        psi = random_direction(sim.geom, rng)
        phi = state.phi + 0.05
        check = gradient_flow_check(sim, phi, prev_phi, reduced_gradient(sim, phi), psi)
        assert max(check.flow_error, check.derivative_error) > 1e-3


class TestReportsMatchStandaloneChecks:
    """Every field of a StepReport equals the diagnostics function evaluated
    afresh from the two states and their strains."""

    @pytest.mark.parametrize("name", ["example1", "example2"])
    def test_consecutive_steps_of_each_preset(self, name):
        cfg = preset_config(name, alpha=1.0)
        cfg = replace(cfg, mesh=replace(cfg.mesh, n=6), t_end=5 * cfg.tau)
        sim = Simulation(cfg)
        m, load = sim.material, load_vector(sim.geom, cfg.bc)
        prev, rep = sim.initial_state()
        st_prev = stress_of(sim.geom, m, prev.u, prev.phi)
        assert_allclose(rep.sigma_linf, stress_components_linf(st_prev.sigma), rtol=1e-13, atol=0)
        for _ in range(cfg.n_steps):
            curr, rep = sim.step(prev)
            st = stress_of(sim.geom, m, curr.u, curr.phi)
            fresh = energy(sim.geom, m, curr.u, curr.phi, st, load)
            for piece in ("total", "elastic", "relax", "work"):
                assert getattr(rep.energy, piece) == pytest.approx(getattr(fresh, piece),
                                                                   rel=1e-13, abs=0)
            assert rep.scheme_residual == pytest.approx(
                scheme_residual(m, sim.step_params, curr.phi, prev.phi, st.sigma), rel=1e-13, abs=0)
            assert rep.identity_residual == pytest.approx(
                energy_identity_residual(sim.geom, m, cfg.tau, prev, curr, st_prev, st),
                rel=1e-13, abs=0)
            assert_allclose(rep.sigma_linf, stress_components_linf(st.sigma), rtol=1e-13, atol=0)
            prev, st_prev = curr, st


class TestVerifyResult:
    def clean_result(self):
        cfg = make_config(n=4, gamma0="sides", g=PULL, alpha=1.0, t_end=0.05)
        sim = Simulation(cfg)
        return sim.run(sample_steps=(1, 3, 5))

    def test_clean_run_passes(self):
        result = self.clean_result()
        report = verify_result(result, directions=2)
        assert report.ok
        assert report.monotone_ok and report.identity_ok
        assert report.scheme_ok and report.gradient_ok
        assert report.messages == []
        assert report.max_scheme <= 1e-12
        assert report.max_identity <= 1e-8
        assert report.max_gradient <= 1e-4

    @pytest.mark.parametrize("directions", [0, 2])
    def test_run_without_sampled_pairs(self, directions):
        cfg = make_config(n=4, gamma0="sides", g=PULL, alpha=1.0, t_end=0.05)
        report = verify_result(Simulation(cfg).run(), directions=directions)
        assert report.gradient_ok == report.ok == (directions == 0)
        assert report.max_gradient == 0.0
        assert report.messages == ([] if directions == 0 else [
            "gradient-flow check has nothing to check: the run sampled no step pairs"])

    def test_mesh_file_run_passes(self, tmp_path):
        # an unstructured polygon, not the unit square, read from a file
        # with its own labels: verify's Simulation runs on the run's mesh
        mesh = left_arc(delaunay_mesh(n=5, seed=3))
        path = tmp_path / "polygon.mesh"
        save_mesh(mesh, path)
        cfg = replace(make_config(alpha=1.0, f=(0.0, -1.0), t_end=0.05),
                      mesh=MeshSpec(path=str(path)), gamma0="file")
        result = Simulation(cfg).run(sample_steps=(1, 5))
        assert result.mesh.n_nodes == mesh.n_nodes
        report = verify_result(result, directions=2)
        assert report.ok, report.messages
        assert report.max_gradient <= 1e-4

    @pytest.mark.parametrize("case", ["example1", "example2", "mesh file"])
    def test_probes_on_the_runs_own_operators(self, monkeypatch, tmp_path, case):
        if case == "mesh file":
            path = tmp_path / "polygon.mesh"
            save_mesh(left_arc(delaunay_mesh(n=5, seed=3)), path)
            cfg = replace(make_config(alpha=1.0, f=(0.0, -1.0), t_end=0.05),
                          mesh=MeshSpec(path=str(path)), gamma0="file")
        else:
            cfg = preset_config(case, alpha=1.0)
            cfg = replace(cfg, mesh=replace(cfg.mesh, n=6), t_end=10 * cfg.tau)
        result = Simulation(cfg).run(sample_steps=default_sample_steps(cfg.n_steps))

        calls = {"Simulation": 0, "assemble_stiffness": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        with monkeypatch.context() as patched:
            patched.setattr(Simulation, "__init__", counted("Simulation", Simulation.__init__))
            patched.setattr(viscofem.stepper, "assemble_stiffness",
                            counted("assemble_stiffness", viscofem.stepper.assemble_stiffness))
            report = verify_result(result, directions=3, seed=2)
        assert calls == {"Simulation": 0, "assemble_stiffness": 0}

        # a Simulation built afresh from the configuration gives the same report, bitwise
        fresh = verify_result(replace(result, sim=Simulation(result.sim.config)),
                              directions=3, seed=2)
        assert report.ok, report.messages
        for f in fields(report):
            assert repr(getattr(report, f.name)) == repr(getattr(fresh, f.name)), f.name

    def test_tampered_energy_is_flagged(self):
        result = self.clean_result()
        energy_series = result.energy.copy()
        energy_series[3] = energy_series[2] + 1.0
        tampered = replace(result, energy=energy_series)
        report = verify_result(tampered, directions=0)
        assert not report.monotone_ok
        assert not report.ok
        assert any("rises" in msg for msg in report.messages)

    @pytest.mark.parametrize("name", ["update_strain", "update_prev"])
    def test_perturbed_update_matrix_is_flagged(self, monkeypatch, name):
        # the scheme residual is measured from the stored fields, not derived
        # from the update algebra: a wrong update matrix shows in it
        cfg = make_config(n=4, gamma0="sides", g=PULL, alpha=1.0, t_end=0.05)
        sim = Simulation(cfg)
        params = sim.step_params
        monkeypatch.setattr(sim, "step_params",
                            replace(params, **{name: getattr(params, name) * (1.0 + 1e-6)}))
        phi0 = 0.1 * np.random.default_rng(4).standard_normal((sim.mesh.n_triangles, 3))
        result = sim.run(phi0=phi0, sample_steps=(1, 5))
        assert result.scheme_residual[1:].min() > 1e-12
        report = verify_result(result, directions=1)
        assert not report.scheme_ok
        assert not report.ok

    def test_tampered_residual_series_is_flagged(self):
        result = self.clean_result()
        scheme = result.scheme_residual.copy()
        scheme[2] = 1e-3
        tampered = replace(result, scheme_residual=scheme)
        report = verify_result(tampered, directions=0)
        assert not report.scheme_ok
        assert not report.ok
