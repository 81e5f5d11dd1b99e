"""Run configuration files: flat `key = value` lines under [section] headers.

The format is deliberately primitive so any tool can read and write it:
five sections (material, time, mesh, bc, output), one value per line, `#`
starts a comment. The Dirichlet map g is six numbers, the 2x2 matrix
row-major followed by the offset. Floats are written with repr, so a
write/parse round trip reproduces the configuration bit for bit.

Every rejection names the offending file, line and key. Unknown sections
and keys are errors, not warnings: a typo must not silently fall back to a
default.
"""

from __future__ import annotations

import numpy as np

from .fields import AffineMap, BoundaryData
from .mesh import BOUNDARY_REGIONS, MAX_DIVISIONS, PATTERNS
from .stepper import MeshSpec, RunConfig, count_steps
from .tensors import Material, validate_material

_SECTIONS = {
    "material": ("lambda", "mu", "eta", "alpha"),
    "time": ("tau", "T"),
    "mesh": ("n", "pattern", "path"),
    "bc": ("gamma0", "g", "q", "f"),
    "output": ("directory", "cadence"),
}


class ConfigError(ValueError):
    """Configuration file rejected; message carries path and line."""


def _fmt(x: float) -> str:
    return repr(float(x))


def _text_value(section: str, key: str, value: str) -> str:
    """value, or ValueError when its `key = value` line would parse back to another."""
    if not value or value != value.strip() or any(c in value for c in "#\n\r"):
        raise ValueError(f"[{section}] {key} = {value!r} cannot be written to a config file "
                         "(empty, '#', a line break, or whitespace at either end)")
    return value


def config_text(cfg: RunConfig) -> str:
    """Canonical text form of a configuration; parse(config_text(c)) == c.
    A mesh path or output directory the format cannot hold is a ValueError."""
    m = cfg.material
    lines = [
        "# viscofem run configuration",
        "[material]",
        f"lambda = {_fmt(m.lam)}",
        f"mu = {_fmt(m.mu)}",
        f"eta = {_fmt(m.eta)}",
        f"alpha = {_fmt(m.alpha)}",
        "",
        "[time]",
        f"tau = {_fmt(cfg.tau)}",
        f"T = {_fmt(cfg.t_end)}",
        "",
        "[mesh]",
    ]
    if cfg.mesh.path is not None:
        lines.append(f"path = {_text_value('mesh', 'path', cfg.mesh.path)}")
    else:
        lines.append(f"n = {cfg.mesh.n}")
        lines.append(f"pattern = {cfg.mesh.pattern}")
    lines += [
        "",
        "[bc]",
        f"gamma0 = {cfg.gamma0}",
        "g = " + " ".join(_fmt(c) for c in cfg.bc.g.coefficients()),
        "q = " + " ".join(_fmt(c) for c in cfg.bc.q),
        "f = " + " ".join(_fmt(c) for c in cfg.bc.f),
        "",
        "[output]",
        f"directory = {_text_value('output', 'directory', cfg.outdir)}",
        f"cadence = {cfg.cadence}",
        "",
    ]
    return "\n".join(lines)


def parse_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as f:
            raw = f.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return parse_config_text(raw, origin=str(path))


def parse_config_text(text: str, origin: str = "<config>") -> RunConfig:
    values: dict[tuple[str, str], tuple[str, int]] = {}
    section = None

    def fail(line_no, message):
        raise ConfigError(f"{origin}:{line_no}: {message}")

    # not splitlines(), which also splits at \f, \v and more and shifts line numbers
    for line_no, line in enumerate(text.split("\n"), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if body.startswith("["):
            if not body.endswith("]"):
                fail(line_no, f"malformed section header {body!r}")
            section = body[1:-1].strip()
            if section not in _SECTIONS:
                fail(line_no, f"unknown section [{section}], expected one of "
                               + ", ".join(f"[{s}]" for s in _SECTIONS))
            continue
        if "=" not in body:
            fail(line_no, f"expected 'key = value', got {body!r}")
        if section is None:
            fail(line_no, "key outside of any [section]")
        key, _, value = body.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SECTIONS[section]:
            fail(line_no, f"unknown key {key!r} in [{section}], expected one of "
                           + ", ".join(_SECTIONS[section]))
        if (section, key) in values:
            fail(line_no, f"duplicate key {key!r} in [{section}]")
        if not value:
            fail(line_no, f"empty value for key {key!r}")
        values[(section, key)] = (value, line_no)

    def take(section, key, default=None):
        if (section, key) in values:
            return values.pop((section, key))
        if default is not None:
            return default, 0
        raise ConfigError(f"{origin}: missing key {key!r} in [{section}]")

    def number(section, key, default=None, convert=float, kind="number"):
        value, line_no = take(section, key, default)
        try:
            return convert(value)
        except ValueError:
            fail(line_no, f"{key!r} must be a {kind}, got {value!r}")

    def vector(section, key, count, default):
        value, line_no = take(section, key, default)
        parts = value.split()
        if len(parts) != count:
            fail(line_no, f"{key!r} needs {count} numbers, got {len(parts)}")
        try:
            numbers = np.array([float(p) for p in parts])
        except ValueError:
            fail(line_no, f"{key!r} must be {count} numbers, got {value!r}")
        if not np.all(np.isfinite(numbers)):
            fail(line_no, f"{key!r} must be {count} finite numbers, got {value!r}")
        return numbers

    def strict_int(s):
        if not (s.lstrip("+-").isdigit()):
            raise ValueError(s)
        return int(s)

    material = Material(
        lam=number("material", "lambda"),
        mu=number("material", "mu"),
        eta=number("material", "eta"),
        alpha=number("material", "alpha"),
    )
    try:
        validate_material(material)
    except ValueError as exc:
        raise ConfigError(f"{origin}: invalid [material]: {exc}") from None

    tau = number("time", "tau")
    t_end = number("time", "T")
    try:
        count_steps(t_end, tau)
    except ValueError as exc:
        raise ConfigError(f"{origin}: invalid [time]: {exc}") from None

    has_n = ("mesh", "n") in values
    has_path = ("mesh", "path") in values
    if has_n == has_path:
        raise ConfigError(f"{origin}: [mesh] needs exactly one of 'n' or 'path'")
    if has_path:
        if ("mesh", "pattern") in values:
            _, line_no = values[("mesh", "pattern")]
            fail(line_no, "'pattern' does not apply to a mesh loaded from 'path'")
        path_value, _ = take("mesh", "path")
        mesh = MeshSpec(path=path_value)
    else:
        n = number("mesh", "n", convert=strict_int, kind="positive integer")
        pattern, pat_line = take("mesh", "pattern", default="alternating")
        if pattern not in PATTERNS:
            fail(pat_line, f"'pattern' must be one of {', '.join(PATTERNS)}, got {pattern!r}")
        if n < 1:
            raise ConfigError(f"{origin}: [mesh] n must be >= 1, got {n}")
        if n > MAX_DIVISIONS:
            raise ConfigError(f"{origin}: [mesh] n = {n} is more than a mesh can hold ({MAX_DIVISIONS})")
        mesh = MeshSpec(n=n, pattern=pattern)

    gamma0, g0_line = take("bc", "gamma0")
    allowed_gamma0 = BOUNDARY_REGIONS + ("file",)
    if gamma0 not in allowed_gamma0:
        fail(g0_line, f"'gamma0' must be one of {', '.join(allowed_gamma0)}, got {gamma0!r}")
    if gamma0 == "file" and mesh.path is None:
        fail(g0_line, "gamma0 = file requires a mesh loaded from 'path'")
    bc = BoundaryData(
        g=AffineMap.from_coefficients(vector("bc", "g", 6, "0 0 0 0 0 0")),
        q=vector("bc", "q", 2, "0 0"),
        f=vector("bc", "f", 2, "0 0"),
    )

    outdir, _ = take("output", "directory", default="out")
    cadence = number("output", "cadence", default="10", convert=strict_int, kind="nonnegative integer")
    if cadence < 0:
        raise ConfigError(f"{origin}: [output] cadence must be >= 0, got {cadence}")

    return RunConfig(
        material=material,
        tau=tau,
        t_end=t_end,
        mesh=mesh,
        gamma0=gamma0,
        bc=bc,
        outdir=outdir,
        cadence=int(cadence),
    )


def preset_config(name: str, alpha: float = 1.0) -> RunConfig:
    """The two built-in experiments on the 40x40 unit square, tau = 0.01.

    example1: creep under a constant body force (0, -1), top edge clamped,
    run to T = 1. example2: stress relaxation under the stretch g = (x1, 0)
    held on both vertical sides, run to T = 2.
    """
    base = dict(
        material=Material(lam=1.0, mu=1.0, eta=1.0, alpha=float(alpha)),
        tau=0.01,
        mesh=MeshSpec(n=40, pattern="alternating"),
        cadence=10,
    )
    if name == "example1":
        return RunConfig(
            t_end=1.0,
            gamma0="top",
            bc=BoundaryData(g=AffineMap.zero(), q=np.zeros(2), f=np.array([0.0, -1.0])),
            outdir="out_example1",
            **base,
        )
    if name == "example2":
        return RunConfig(
            t_end=2.0,
            gamma0="sides",
            bc=BoundaryData(
                g=AffineMap(np.array([[1.0, 0.0], [0.0, 0.0]]), np.zeros(2)),
                q=np.zeros(2),
                f=np.zeros(2),
            ),
            outdir="out_example2",
            **base,
        )
    raise ValueError(f"unknown preset {name!r}, expected example1 or example2")
