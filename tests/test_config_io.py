"""Configuration parsing, output files, and the command line front end."""

import os
import re
import subprocess
import sys
from contextlib import suppress
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from viscofem.config import (
    ConfigError,
    config_text,
    parse_config,
    parse_config_text,
    preset_config,
)
import viscofem.diagnostics
from viscofem.cli import main
from viscofem.diagnostics import VerificationReport
from viscofem.fields import AffineMap, BoundaryData
from viscofem.mesh import (GAMMA0_CHOICES, MAX_DIVISIONS, PATTERNS, MeshGeometry, build_unit_square,
                           classify_boundary)
from viscofem import outputs
from viscofem.outputs import write_outputs
from viscofem.stepper import MeshSpec, RunConfig, Simulation
from viscofem.tensors import Material

from oracles import read_vtk, save_mesh, stress_of, write_config
from test_stepper import BOW_TIE_MESH, PULL, TWO_SQUARES_MESH, make_config

BASE_LINES = [
    "[material]",
    "lambda = 1.0",
    "mu = 1.0",
    "eta = 1.0",
    "alpha = 0.5",
    "[time]",
    "tau = 0.01",
    "T = 0.05",
    "[mesh]",
    "n = 3",
    "[bc]",
    "gamma0 = sides",
    "g = 1.0 0.0 0.0 0.0 0.0 0.0",
    "[output]",
    "directory = out",
    "cadence = 0",
]


def edited(replace=None, insert=None, drop=None):
    """BASE_LINES with one line replaced, inserted after a line, or dropped.

    All positions are 1-based line numbers into BASE_LINES.
    """
    lines = list(BASE_LINES)
    if drop is not None:
        del lines[drop - 1]
    if replace is not None:
        line_no, text = replace
        lines[line_no - 1] = text
    if insert is not None:
        line_no, text = insert
        lines.insert(line_no, text)
    return "\n".join(lines) + "\n"


class TestParsing:
    def test_base_text_parses(self):
        cfg = parse_config_text(edited())
        assert cfg.material.alpha == 0.5
        assert cfg.mesh.n == 3
        assert cfg.gamma0 == "sides"
        assert cfg.bc.g.coefficients()[0] == 1.0
        assert cfg.cadence == 0
        assert cfg.n_steps == 5

    def test_comments_and_blank_lines_ignored(self):
        noisy = "# leading comment\n\n" + edited().replace(
            "mu = 1.0", "mu = 1.0   # shear modulus")
        assert parse_config_text(noisy) == parse_config_text(edited())

    # str.splitlines() breaks lines at each of these; the format breaks only at "\n"
    @pytest.mark.parametrize("char", ["\f", "\v", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_other_line_breaks_stay_inside_comments(self, char):
        text = config_text(preset_config("example1"))
        noisy = text.replace("# viscofem run", f"# viscofem{char}run", 1)
        assert noisy != text
        assert config_text(parse_config_text(noisy, origin="f.cfg")) == text
        line = noisy.count("\n") + 1
        with pytest.raises(ConfigError, match=re.escape(f"f.cfg:{line}: unknown key 'bogus' in [output]")):
            parse_config_text(noisy + "bogus = 1\n", origin="f.cfg")

    def test_defaults(self):
        # drop the g line and the whole [output] block
        keep = [l for i, l in enumerate(BASE_LINES, 1) if i not in (13, 14, 15, 16)]
        cfg = parse_config_text("\n".join(keep))
        assert cfg.outdir == "out"
        assert cfg.cadence == 10
        assert cfg.bc.g.coefficients() == (0.0,) * 6
        assert cfg.bc.q == (0.0, 0.0)
        assert cfg.bc.f == (0.0, 0.0)

    def test_file_round_trip(self, tmp_path):
        cfg = preset_config("example2", alpha=2.0)
        path = tmp_path / "run.cfg"
        write_config(cfg, path)
        assert parse_config(path) == cfg

    @pytest.mark.parametrize("value", ["out#1", " out", "out ", "\tout", "a\nb", "a\rb", ""])
    @pytest.mark.parametrize("section,key", [("output", "directory"), ("mesh", "path")])
    def test_value_that_would_not_parse_back_rejected(self, section, key, value):
        cfg = make_config(n=3)
        if key == "path":
            cfg = replace(cfg, mesh=MeshSpec(path=value))
        else:
            cfg = replace(cfg, outdir=value)
        with pytest.raises(ValueError, match=re.escape(f"[{section}] {key} = {value!r} cannot")):
            config_text(cfg)

    @pytest.mark.parametrize("value", ["out", "runs/a b/out", "../x=y", "[out]", "C:\\runs",
                                       "ünï/çødé", "a;b", "~/out.d"])
    def test_ordinary_paths_round_trip(self, value):
        cfg = replace(make_config(n=3), outdir=value)
        assert parse_config_text(config_text(cfg)).outdir == value
        cfg = replace(cfg, mesh=MeshSpec(path=value))
        assert parse_config_text(config_text(cfg)).mesh.path == value

    def test_path_likes_held_as_text(self):
        cfg = make_config(n=3)
        assert config_text(replace(cfg, outdir=Path("out"))) == config_text(replace(cfg, outdir="out"))
        assert (config_text(replace(cfg, mesh=MeshSpec(path=Path("m.txt"))))
                == config_text(replace(cfg, mesh=MeshSpec(path="m.txt"))))
        assert MeshSpec(path=Path("m.txt")) == MeshSpec(path="m.txt")

    # a ConfigError from the reader, or a plain ValueError for a choice that
    # would read back without its whitespace
    @pytest.mark.parametrize("change,error", [
        (dict(cadence=-1), ConfigError),
        (dict(bc=BoundaryData(g=AffineMap.zero(), q=(float("nan"), 0.0), f=(0.0, 0.0))), ConfigError),
        (dict(mesh=MeshSpec(n=0)), ConfigError),
        (dict(mesh=MeshSpec(n=3, pattern="diag")), ConfigError),
        (dict(gamma0="file"), ConfigError),
        (dict(gamma0="nowhere"), ConfigError),
        (dict(material=Material(lam=1.0, mu=1.0, eta=1.0, alpha=-1.0)), ConfigError),
        (dict(tau=0.1), ConfigError),
        (dict(mesh=MeshSpec(n=3, pattern="right ")), ValueError),
        (dict(gamma0="top "), ValueError),
    ])
    def test_text_that_does_not_read_back_rejected(self, change, error):
        cfg = replace(make_config(n=3), **change)
        with pytest.raises(error) as err:
            config_text(cfg)
        if error is ValueError:
            assert not isinstance(err.value, ConfigError)
            assert "reads back as" in str(err.value)

    def test_origin_in_errors(self, tmp_path):
        path = tmp_path / "broken.cfg"
        path.write_text(edited(replace=(3, "mu = fast")))
        with pytest.raises(ConfigError, match=r"broken\.cfg:3:"):
            parse_config(path)


class TestRejections:
    def test_non_utf8_byte_names_file(self, tmp_path):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(b"# caf\xe9 run\n" + edited().encode())
        with pytest.raises(ConfigError, match=re.escape(
                f"{path}: not UTF-8 text (invalid continuation byte at byte 5)")):
            parse_config(path)

    CASES = [
        (dict(replace=(9, "[grid]")), 9, "unknown section"),
        (dict(replace=(9, "[mesh")), 9, "malformed section header"),
        (dict(insert=(2, "rho = 1.0")), 3, "unknown key 'rho'"),
        (dict(insert=(3, "mu = 2.0")), 4, "duplicate key 'mu'"),
        (dict(replace=(5, "alpha =")), 5, "empty value"),
        (dict(insert=(0, "tau = 0.01")), 1, "outside of any"),
        (dict(insert=(1, "just text")), 2, "expected 'key = value'"),
        (dict(replace=(3, "mu = fast")), 3, "must be a number"),
        (dict(replace=(10, "n = 2.5")), 10, "positive integer"),
        (dict(insert=(10, "pattern = diagonal")), 11, "'pattern' must be one of"),
        (dict(insert=(10, "pattern = left"), replace=(10, "path = m.mesh")), 11,
         "does not apply to a mesh loaded from 'path'"),
        (dict(replace=(12, "gamma0 = nowhere")), 12, "'gamma0' must be one of"),
        (dict(replace=(12, "gamma0 = file")), 12, "requires a mesh loaded from 'path'"),
        (dict(replace=(13, "g = 1.0 0.0")), 13, "'g' needs 6 numbers"),
        (dict(replace=(13, "g = a b c d e f")), 13, "must be 6 numbers"),
        (dict(replace=(13, "g = nan 0 0 0 0 0")), 13, "'g' must be 6 finite numbers"),
        (dict(insert=(13, "f = inf 0")), 14, "'f' must be 2 finite numbers"),
        (dict(insert=(13, "q = 0 -inf")), 14, "'q' must be 2 finite numbers"),
    ]

    @pytest.mark.parametrize("edit,line,fragment", CASES)
    def test_line_anchored(self, edit, line, fragment):
        with pytest.raises(ConfigError) as err:
            parse_config_text(edited(**edit))
        message = str(err.value)
        assert message.startswith(f"<config>:{line}:"), message
        assert fragment in message

    UNANCHORED = [
        (dict(replace=(10, "n = 0")), "n must be >= 1"),
        (dict(insert=(10, "path = m.mesh")), "exactly one of 'n' or 'path'"),
        (dict(drop=10), "exactly one of 'n' or 'path'"),
        (dict(replace=(3, "mu = -1.0")), "invalid [material]"),
        (dict(replace=(7, "tau = 0.2")), "invalid [time]"),
        (dict(drop=4), "missing key 'eta'"),
        (dict(replace=(16, "cadence = -2")), "cadence must be >= 0"),
        (dict(replace=(8, "T = inf")), "T / tau is not finite"),
        (dict(replace=(8, "T = 1e308")), "T / tau is not finite"),
        (dict(replace=(7, "tau = 1e-320")), "T / tau is not finite"),
        (dict(replace=(8, "T = 1e300")), "more than a run can hold"),
        (dict(replace=(10, f"n = {MAX_DIVISIONS + 1}")), "[mesh] n = 1301 is more than a mesh can hold"),
    ]

    @pytest.mark.parametrize("edit,fragment", UNANCHORED)
    def test_whole_file_rejections(self, edit, fragment):
        with pytest.raises(ConfigError) as err:
            parse_config_text(edited(**edit))
        assert fragment in str(err.value)


class TestPresets:
    def test_creep_preset(self):
        cfg = preset_config("example1", alpha=0.0)
        assert (cfg.gamma0, cfg.t_end, cfg.tau) == ("top", 1.0, 0.01)
        assert cfg.material.alpha == 0.0
        assert (cfg.mesh.n, cfg.mesh.pattern) == (40, "alternating")
        assert cfg.bc.f == (0.0, -1.0)
        assert cfg.bc.g.coefficients() == (0.0,) * 6
        assert cfg.outdir == "out_example1"
        assert cfg.n_steps == 100

    @pytest.mark.parametrize("name", ["example1", "example2"])
    def test_preset_is_an_immutable_value(self, name):
        cfg = preset_config(name)
        assert hash(cfg) == hash(preset_config(name))
        with pytest.raises(TypeError):
            cfg.bc.f[1] = 5.0
        with pytest.raises(TypeError):
            cfg.bc.g.matrix[0][0] = 5.0
        assert cfg == preset_config(name)

    def test_relaxation_preset(self):
        cfg = preset_config("example2")
        assert (cfg.gamma0, cfg.t_end) == ("sides", 2.0)
        assert cfg.bc.g == PULL
        assert cfg.bc.f == (0.0, 0.0)
        assert cfg.outdir == "out_example2"
        assert cfg.n_steps == 200

    @pytest.mark.parametrize("name", ["example1", "example2"])
    def test_text_round_trip(self, name):
        cfg = preset_config(name, alpha=2.0)
        text = config_text(cfg)
        again = parse_config_text(text)
        assert again == cfg and hash(again) == hash(cfg)
        assert config_text(again) == text

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="example1 or example2"):
            preset_config("example3")


@pytest.fixture(scope="module")
def small_result():
    cfg = make_config(n=4, gamma0="sides", g=PULL, alpha=1.0, t_end=0.05, cadence=2)
    return Simulation(cfg).run()


class TestOutputFiles:
    def test_file_set(self, small_result, tmp_path):
        paths = write_outputs(small_result, tmp_path)
        names = sorted(p.split("/")[-1] for p in paths)
        assert names == [
            "energy.csv", "state_000000.vtk", "state_000002.vtk",
            "state_000004.vtk", "state_000005.vtk", "stress.csv", "summary.txt",
        ]

    def test_energy_csv_parses_back(self, small_result, tmp_path, monkeypatch):
        monkeypatch.setattr(outputs, "_BLOCK_ROWS", 4)  # 6 rows: one full block, one partial
        write_outputs(small_result, tmp_path)
        path = tmp_path / "energy.csv"
        header = path.read_text().splitlines()[0]
        assert header == "t,E,elastic,relax,work,identity_residual"
        data = np.genfromtxt(path, delimiter=",", skip_header=1)
        assert data.shape == (6, 6)
        assert_allclose(data[:, 0], small_result.times, rtol=1e-11, atol=1e-15)
        assert_allclose(data[:, 1], small_result.energy, rtol=1e-11, atol=1e-15)
        assert_allclose(data[:, 5], small_result.identity_residual, rtol=1e-11, atol=1e-15)
        r = small_result
        rows = ["%.12e,%.12e,%.12e,%.12e,%.12e,%.12e" % (
            r.times[k], r.energy[k], r.elastic[k], r.relax[k], r.work[k], r.identity_residual[k])
            for k in range(len(r.times))]
        assert path.read_text().splitlines()[1:] == rows

    def test_stress_csv_parses_back(self, small_result, tmp_path):
        write_outputs(small_result, tmp_path)
        path = tmp_path / "stress.csv"
        header = path.read_text().splitlines()[0]
        assert header == "t,sigma11_linf,sigma22_linf,sigma12_linf"
        data = np.genfromtxt(path, delimiter=",", skip_header=1)
        assert_allclose(data[:, 1:], small_result.sigma_linf, rtol=1e-11, atol=1e-15)
        r = small_result
        rows = ["%.12e,%.12e,%.12e,%.12e" % (r.times[k], *r.sigma_linf[k]) for k in range(len(r.times))]
        assert path.read_text().splitlines()[1:] == rows

    def test_vtk_structure(self, small_result, tmp_path):
        write_outputs(small_result, tmp_path)
        mesh = small_result.mesh
        n, m = mesh.n_nodes, mesh.n_triangles
        geom = MeshGeometry(mesh)
        scalars = [f"{field}_{c}" for field in ("phi", "sigma") for c in ("xx", "yy", "xy")]
        for state in small_result.snapshots:
            lines, blocks = read_vtk(tmp_path / f"state_{state.k:06d}.vtk")
            assert lines == [
                "# vtk DataFile Version 2.0", f"viscofem state k={state.k} t={state.t:.6f}",
                "BINARY", "DATASET UNSTRUCTURED_GRID", f"POINTS {n} double",
                f"CELLS {m} {4 * m}", f"CELL_TYPES {m}", f"POINT_DATA {n}", "VECTORS u double",
                f"CELL_DATA {m}",
            ] + [line for name in scalars
                 for line in (f"SCALARS {name} double 1", "LOOKUP_TABLE default")]

            # every value exactly as the run holds it
            points, u = blocks["POINTS"].reshape(n, 3), blocks["u"].reshape(n, 3)
            assert np.array_equal(points, np.column_stack([mesh.nodes, np.zeros(n)]))
            assert np.array_equal(u, np.column_stack([state.u, np.zeros(n)]))
            cells = blocks["CELLS"].reshape(m, 4)
            assert np.array_equal(cells, np.column_stack([np.full(m, 3), mesh.triangles]))
            assert np.array_equal(blocks["CELL_TYPES"], np.full(m, 5))
            sigma = stress_of(geom, small_result.sim.config.material, state.u, state.phi).sigma
            for name, values in zip(scalars, np.column_stack([state.phi, sigma]).T):
                assert np.array_equal(blocks[name], values)

    def test_summary_content(self, small_result, tmp_path):
        write_outputs(small_result, tmp_path)
        text = (tmp_path / "summary.txt").read_text()
        assert "N_T=5" in text
        assert "unit square n=4 pattern=alternating" in text
        assert "dirichlet boundary: sides" in text
        assert f"final energy: {small_result.energy[-1]:.12e}" in text
        assert f"max solve backward error: {small_result.backward_error.max():.3e}" in text

    def test_summary_names_the_mesh_file(self, tmp_path):
        path = tmp_path / "square.mesh"
        save_mesh(classify_boundary(build_unit_square(3), "top"), path)
        cfg = replace(make_config(n=3, t_end=0.02), mesh=MeshSpec(path=path), gamma0="file")
        write_outputs(Simulation(cfg).run(), tmp_path / "out")
        text = (tmp_path / "out" / "summary.txt").read_text()
        assert f"\nmesh: file {path} (16 nodes, 18 triangles)\n" in text

    def test_outputs_are_deterministic(self, small_result, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        write_outputs(small_result, first)
        write_outputs(small_result, second)
        for path in sorted(first.iterdir()):
            assert path.read_bytes() == (second / path.name).read_bytes()

    def test_snapshots_equal_standalone_vtk(self, small_result, tmp_path):
        write_outputs(small_result, tmp_path / "all")
        for state in small_result.snapshots:
            name = f"state_{state.k:06d}.vtk"
            alone = outputs.write_vtk(small_result, state, tmp_path / name)
            assert (tmp_path / "all" / name).read_bytes() == (tmp_path / name).read_bytes()
            assert alone == tmp_path / name

    def test_rerun_is_bit_identical(self, small_result, tmp_path):
        cfg = small_result.sim.config
        again = Simulation(cfg).run()
        first = tmp_path / "a"
        second = tmp_path / "b"
        write_outputs(small_result, first)
        write_outputs(again, second)
        for path in sorted(first.iterdir()):
            assert path.read_bytes() == (second / path.name).read_bytes()

    def test_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # at n = 80 a BLAS ddot splits the area and load sums between its
        # threads, which moved the last bits of energy.csv and summary.txt
        cfg = replace(preset_config("example1"), t_end=0.1)
        cfg = replace(cfg, mesh=replace(cfg.mesh, n=80))
        write_config(cfg, tmp_path / "run.cfg")
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "viscofem.cli", "solve", "--config", str(tmp_path / "run.cfg"),
                 "--out", str(tmp_path / threads)],
                capture_output=True, text=True, env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
            assert proc.returncode == 0, proc.stderr
        names = sorted(path.name for path in (tmp_path / "1").iterdir())
        assert names == sorted(path.name for path in (tmp_path / "2").iterdir())
        for name in names:
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name


def rejection(capsys, path, outdir) -> str:
    """The one error line that solve into outdir and check-config both print
    for the configuration at path; both must exit 1."""
    errors = []
    for args in (["solve", "--config", str(path), "--out", str(outdir)], ["check-config", str(path)]):
        assert main(args) == 1
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] and errors[0].count("\n") == 1
    return errors[0]


def write_small_config(tmp_path, **kw):
    cfg = make_config(n=4, gamma0="sides", g=PULL, alpha=1.0, tau=0.01,
                      t_end=0.03, **kw)
    path = tmp_path / "small.cfg"
    write_config(cfg, path)
    return path


class TestCommandLine:
    def test_preset_to_stdout(self, capsys):
        assert main(["preset", "example1", "--alpha", "2.0"]) == 0
        out = capsys.readouterr().out
        cfg = parse_config_text(out)
        assert cfg.material.alpha == 2.0
        assert cfg.gamma0 == "top"

    def test_preset_to_file(self, capsys, tmp_path):
        target = tmp_path / "ex2.cfg"
        assert main(["preset", "example2", "--out", str(target)]) == 0
        assert "wrote" in capsys.readouterr().out
        assert parse_config(target).gamma0 == "sides"

    @pytest.mark.parametrize("alpha", ["-1", "nan", "inf"])
    def test_preset_rejects_inadmissible_alpha(self, alpha, capsys, tmp_path):
        # check-config would reject what preset printed
        assert main(["preset", "example1", "--alpha", alpha]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "alpha" in captured.err
        target = tmp_path / "ex1.cfg"
        assert main(["preset", "example2", "--alpha", alpha, "--out", str(target)]) == 1
        assert not target.exists()

    def test_preset_rejects_unknown_name(self):
        with pytest.raises(SystemExit):
            main(["preset", "example9"])

    def test_check_config_ok(self, capsys, tmp_path):
        path = write_small_config(tmp_path)
        assert main(["check-config", str(path)]) == 0
        assert ": ok (" in capsys.readouterr().out

    def test_check_config_rejects(self, capsys, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(edited(replace=(7, "tau = 0.2")))
        assert main(["check-config", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_check_config_non_finite_step_count(self, capsys, tmp_path):
        path = tmp_path / "long.cfg"
        path.write_text(edited(replace=(8, "T = inf")))
        assert main(["check-config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "invalid [time]" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command,t_end,tau", [
        (["check-config"], "1e300", "0.01"),
        (["solve", "--config"], "1e15", "1"),
    ])
    def test_step_count_beyond_ceiling(self, capsys, tmp_path, command, t_end, tau):
        path = tmp_path / "endless.cfg"
        path.write_text(edited(replace=(8, f"T = {t_end}")).replace("tau = 0.01", f"tau = {tau}"))
        assert main([*command, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "invalid [time]" in err
        assert "more than a run can hold" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", [["check-config"], ["solve", "--config"]])
    def test_mesh_size_beyond_ceiling(self, capsys, tmp_path, command):
        path = tmp_path / "huge.cfg"
        path.write_text(edited(replace=(10, "n = 1000000")))
        assert main([*command, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "[mesh] n = 1000000" in err
        assert "more than a mesh can hold" in err
        assert err.count("\n") == 1

    def test_solve_rejects_node_outside_every_triangle(self, capsys, tmp_path):
        mesh_path = tmp_path / "stray.mesh"
        mesh_path.write_text(
            "nodes 4\n0 0\n1 0\n0 1\n5 5\n"
            "triangles 1\n0 1 2\n"
            "boundary 3\n0 1 0\n1 2 1\n2 0 0\n"
        )
        path = tmp_path / "stray.cfg"
        path.write_text(edited(replace=(10, f"path = {mesh_path}")))
        err = rejection(capsys, path, tmp_path / "o")
        assert err.startswith("error: ") and "node 3 belongs to no triangle" in err

    def test_solve_rejects_non_finite_node(self, capsys, tmp_path):
        mesh_path = tmp_path / "nan.mesh"
        mesh_path.write_text(
            "nodes 3\n0 0\n1 0\nnan 1\n"
            "triangles 1\n0 1 2\n"
            "boundary 3\n0 1 0\n1 2 1\n2 0 0\n"
        )
        path = tmp_path / "nan.cfg"
        path.write_text(edited(replace=(10, f"path = {mesh_path}")))
        err = rejection(capsys, path, tmp_path / "o")
        assert err.startswith("error: ") and "nan.mesh:4: expected a finite number" in err

    def test_solve_rejects_index_beyond_int64(self, capsys, tmp_path):
        mesh_path = tmp_path / "huge.mesh"
        mesh_path.write_text(
            "nodes 3\n0 0\n1 0\n0 1\n"
            f"triangles 1\n0 1 {2**63}\n"
            "boundary 3\n0 1 0\n1 2 1\n2 0 0\n"
        )
        path = tmp_path / "huge.cfg"
        path.write_text(edited(replace=(10, f"path = {mesh_path}")))
        err = rejection(capsys, path, tmp_path / "o")
        assert err.startswith(f"error: {mesh_path}:6: integer {2**63} is too large")

    @pytest.mark.parametrize("bad", ["config", "mesh"])
    def test_solve_names_non_utf8_file(self, capsys, tmp_path, bad):
        mesh_path = tmp_path / "square.mesh"
        mesh_path.write_bytes(b"# \xff\n" * (bad == "mesh") + b"nodes 4\n0 0\n1 0\n1 1\n0 1\n"
                              b"triangles 2\n0 1 2\n0 2 3\nboundary 4\n0 1 1\n1 2 0\n2 3 1\n3 0 0\n")
        path = tmp_path / "run.cfg"
        path.write_bytes(b"# \xff\n" * (bad == "config")
                         + edited(replace=(10, f"path = {mesh_path}")).encode())
        err = rejection(capsys, path, tmp_path / "o")
        named = path if bad == "config" else mesh_path
        assert err == f"error: {named}: not UTF-8 text (invalid start byte at byte 2)\n"

    @pytest.mark.parametrize("text,node", [(TWO_SQUARES_MESH, 4), (BOW_TIE_MESH, 3)])
    def test_solve_rejects_part_not_held(self, capsys, tmp_path, text, node):
        mesh_path = tmp_path / "loose.mesh"
        mesh_path.write_text(text)
        path = tmp_path / "loose.cfg"
        path.write_text(edited(replace=(10, f"path = {mesh_path}"))
                        .replace("gamma0 = sides", "gamma0 = file"))
        err = rejection(capsys, path, tmp_path / "o")
        assert err.startswith(f"error: the mesh part at node {node} ")
        assert "at least two are needed" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("mesh_text,fragment", [
        (None, "No such file"),
        ("nodes 3\n0 0\n1 0\n0 1\ntriangles 1\n0 1 2\nboundary 3\n0 1 0\n",
         "unexpected end of file"),
    ])
    def test_solve_rejects_unreadable_mesh_file(self, capsys, tmp_path, mesh_text, fragment):
        mesh_path = tmp_path / "m.mesh"
        if mesh_text is not None:
            mesh_path.write_text(mesh_text)
        path = tmp_path / "m.cfg"
        path.write_text(edited(replace=(10, f"path = {mesh_path}"))
                        .replace("gamma0 = sides", "gamma0 = file"))
        err = rejection(capsys, path, tmp_path / "o")
        assert err.startswith("error: ") and fragment in err

    @pytest.mark.parametrize("out", ["file", ""])
    def test_solve_rejects_output_directory_before_the_run(self, capsys, tmp_path, monkeypatch, out):
        path = write_small_config(tmp_path)
        if out == "file":
            out = tmp_path / "taken"
            out.write_text("")
        runs = []
        monkeypatch.setattr(Simulation, "run", lambda *args, **kw: runs.append(args))
        assert main(["solve", "--config", str(path), "--out", str(out)]) == 1
        assert runs == []
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno ") and err.count("\n") == 1

    def test_check_config_missing_file(self, capsys, tmp_path):
        assert main(["check-config", str(tmp_path / "absent.cfg")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_solve_writes_outputs(self, capsys, tmp_path):
        path = write_small_config(tmp_path)
        outdir = tmp_path / "results"
        assert main(["solve", "--config", str(path), "--out", str(outdir)]) == 0
        out = capsys.readouterr().out
        assert "ran 3 steps" in out
        assert (outdir / "energy.csv").exists()
        assert (outdir / "summary.txt").exists()

    def test_solve_overrides(self, capsys, tmp_path):
        path = write_small_config(tmp_path)
        outdir = tmp_path / "override"
        assert main(["solve", "--config", str(path), "--alpha", "0.25",
                     "--tau", "0.015", "--out", str(outdir)]) == 0
        summary = (outdir / "summary.txt").read_text()
        assert "alpha=0.25" in summary
        assert "N_T=2" in summary

    def test_solve_verify_flag(self, capsys, tmp_path):
        path = write_small_config(tmp_path)
        outdir = tmp_path / "verified"
        assert main(["solve", "--config", str(path), "--out", str(outdir),
                     "--verify"]) == 0
        out = capsys.readouterr().out
        assert "verify: monotone=ok identity=ok" in out
        assert "gradient-flow=ok" in out

    def test_solve_verify_failure_exits_1(self, capsys, tmp_path, monkeypatch):
        failing = VerificationReport(
            monotone_ok=True, identity_ok=True, scheme_ok=True, gradient_ok=False,
            max_identity=0.0, max_scheme=0.0, max_gradient=0.5,
            messages=["gradient-flow check failed at step 2: 5.000e-01"])
        monkeypatch.setattr(viscofem.diagnostics, "verify_result", lambda result: failing)
        path = write_small_config(tmp_path)
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "out"),
                     "--verify"]) == 1
        captured = capsys.readouterr()
        assert "gradient-flow=FAIL (max 5.000e-01)" in captured.out
        assert captured.err == "verify: gradient-flow check failed at step 2: 5.000e-01\n"

    def test_solve_bad_config_fails(self, capsys, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(edited(replace=(10, "n = 0")))
        assert main(["solve", "--config", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "viscofem.cli", "preset", "example2"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        cfg = parse_config_text(proc.stdout)
        assert cfg.t_end == 2.0


# ---------------------------------------------------------------------------
# malformed configurations (hypothesis): only ConfigError may escape
# ---------------------------------------------------------------------------


VALUES = st.one_of(
    st.text(max_size=12),
    st.floats().map(repr),
    st.integers(-2**70, 2**70).map(str),
    st.sampled_from(["0", "-0", "1e-320", "1e308", "nan", "-inf", "1_0", "\u0663", "\u00b2",
                     "+-1", "file", "sides", "m.mesh", "[mesh]", "= 1", "#"]),
)
FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)


class TestMalformedConfigs:
    @FUZZ
    @given(edits=st.lists(st.tuples(st.integers(0, len(BASE_LINES) - 1), VALUES, st.booleans()),
                          min_size=1, max_size=3))
    def test_edited_lines(self, edits):
        lines = list(BASE_LINES)
        for row, value, keep_key in edits:
            key, eq, _ = lines[row].partition("=")
            lines[row] = f"{key}= {value}" if keep_key and eq else value
        with suppress(ConfigError):
            parse_config_text("\n".join(lines))

    @FUZZ
    @given(data=st.binary(max_size=200))
    def test_arbitrary_bytes(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("fuzz") / "run.cfg"
        path.write_bytes(data)
        with suppress(ConfigError):
            parse_config(path)


# ---------------------------------------------------------------------------
# config_text (hypothesis): a configuration reads back from its text, or the
# text is refused
# ---------------------------------------------------------------------------


ANY_FLOAT = st.one_of(st.floats(), st.integers(-3, 3))
ANY_TEXT = st.one_of(st.text(max_size=6), st.sampled_from(["", " out", "top ", "a#b", "a\nb"]))
NAME = st.text(alphabet="ab/._-", min_size=1, max_size=6)
PARTS = ("material", "time", "mesh", "gamma0", "bc", "output")


def any_choice(choices):
    """One of choices, maybe padded with whitespace the reader strips, or any text."""
    padded = st.sampled_from(choices).flatmap(
        lambda c: st.sampled_from([c, f" {c}", f"{c} ", f"{c}\t"]))
    return st.one_of(padded, ANY_TEXT)


@st.composite
def run_configs(draw):
    """(cfg, wild): a RunConfig of valid values, except that the parts named
    in wild (at most two) take any value of their type."""
    wild = draw(st.sets(st.sampled_from(PARTS), max_size=2))

    def pick(part, valid, anything):
        return draw(anything if part in wild else valid)

    finite = st.floats(allow_nan=False, allow_infinity=False)
    positive = st.floats(0.1, 10.0)
    return RunConfig(
        material=pick("material", st.builds(Material, lam=st.floats(0.0, 10.0), mu=positive,
                                            eta=positive, alpha=st.floats(0.0, 10.0)),
                      st.builds(Material, lam=ANY_FLOAT, mu=ANY_FLOAT, eta=ANY_FLOAT,
                                alpha=ANY_FLOAT)),
        tau=pick("time", st.sampled_from([0.01, 0.1]), ANY_FLOAT),
        t_end=pick("time", st.sampled_from([0.5, 1.0]), ANY_FLOAT),
        mesh=pick("mesh", st.one_of(st.builds(MeshSpec, n=st.integers(1, MAX_DIVISIONS),
                                              pattern=st.sampled_from(PATTERNS)),
                                    st.builds(MeshSpec, path=NAME)),
                  st.builds(MeshSpec, n=st.one_of(st.none(), st.integers(-2, 50),
                                                  st.integers(MAX_DIVISIONS, 2 * MAX_DIVISIONS)),
                            pattern=any_choice(PATTERNS), path=st.one_of(st.none(), NAME, ANY_TEXT))),
        gamma0=pick("gamma0", st.sampled_from([c for c in GAMMA0_CHOICES if c != "file"]),
                    any_choice(GAMMA0_CHOICES)),
        bc=pick("bc", st.builds(BoundaryData, g=st.builds(AffineMap.from_coefficients,
                                                          st.lists(finite, min_size=6, max_size=6)),
                                q=st.tuples(finite, finite), f=st.tuples(finite, finite)),
                st.builds(BoundaryData, g=st.builds(AffineMap.from_coefficients,
                                                    st.lists(ANY_FLOAT, min_size=6, max_size=6)),
                          q=st.tuples(ANY_FLOAT, ANY_FLOAT), f=st.tuples(ANY_FLOAT, ANY_FLOAT))),
        outdir=pick("output", NAME, ANY_TEXT),
        cadence=pick("output", st.integers(0, 50),
                     st.one_of(st.integers(-3, 3), st.sampled_from([2.0, True]))),
    ), wild


class TestConfigTextReadsBack:
    @FUZZ
    @given(drawn=run_configs())
    def test_reads_back_or_raises(self, drawn):
        cfg, wild = drawn
        try:
            text = config_text(cfg)
        except ValueError:
            assert wild, "config_text refused a valid configuration"
            return
        again = parse_config_text(text)
        assert again == cfg and hash(again) == hash(cfg)
