"""Conforming triangle meshes of the unit square with labeled boundary edges.

Boundary edges are derived from the triangles: the edges of exactly one
triangle, directed as in it, so counterclockwise. build_unit_square takes
them from there, and validation checks a loaded boundary list against them.

Boundary edges carry one of two labels: GAMMA0 marks the Dirichlet part of
the boundary (displacement prescribed), GAMMA1 the traction part. A mesh is
built with every edge labeled GAMMA1 and must be classified before use;
classification decides per edge from its midpoint, which is unambiguous for
the axis-aligned boundaries used here.

The text format mirrors the in-memory layout, 0-based indices throughout:

    nodes N          followed by N lines  "x y"
    triangles M      followed by M lines  "i j k"
    boundary B       followed by B lines  "i j label"   label 0 = Dirichlet

Blank lines and "#" comments are allowed anywhere; a line ends at a line feed
only. Each section is converted by one numpy call; a section that fails is
walked token by token to name its first bad token with file:line. Clockwise
triangles are reoriented; degenerate ones and ones whose area overflows are
rejected.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace

import numpy as np

GAMMA0 = 0  # Dirichlet boundary label
GAMMA1 = 1  # traction boundary label

PATTERNS = ("right", "left", "alternating")

# Relative area floor below which a triangle counts as degenerate.
_DEGENERATE_REL = 1e-14

# assemble_stiffness holds 36 int64 keys per element, 576 n^2 bytes for the
# 2 n^2 triangles of build_unit_square(n); this keeps them under 1 GB.
MAX_DIVISIONS = 1300


class MeshFormatError(ValueError):
    """Raised for malformed mesh files and non-conforming connectivity."""


@dataclass(frozen=True)
class Mesh:
    """Triangulation with boundary labels. Arrays are treated as immutable.

    nodes        (n_nodes, 2) float coordinates
    triangles    (n_triangles, 3) int, counterclockwise
    edges        (n_edges, 2) int, boundary edges only
    edge_labels  (n_edges,) int, GAMMA0 or GAMMA1
    """

    nodes: np.ndarray
    triangles: np.ndarray
    edges: np.ndarray
    edge_labels: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    def edge_midpoints(self) -> np.ndarray:
        return 0.5 * (self.nodes[self.edges[:, 0]] + self.nodes[self.edges[:, 1]])

    def edge_lengths(self) -> np.ndarray:
        d = self.nodes[self.edges[:, 1]] - self.nodes[self.edges[:, 0]]
        return np.hypot(d[:, 0], d[:, 1])


def build_unit_square(n: int, pattern: str = "alternating") -> Mesh:
    """Structured triangulation of (0,1)^2 with n divisions per side.

    Each grid cell is split along one diagonal. "right" uses the diagonal
    from the lower-left to the upper-right corner, "left" the other one,
    and "alternating" flips the choice in a checkerboard. Cells come row by
    row from the bottom, two triangles each. All boundary edges start
    labeled GAMMA1.
    """
    if not 1 <= n <= MAX_DIVISIONS:
        raise ValueError(f"side division count must be in [1, {MAX_DIVISIONS}], got n={n}")
    if pattern not in PATTERNS:
        raise ValueError(f"unknown pattern {pattern!r}, expected one of {PATTERNS}")

    xs = np.linspace(0.0, 1.0, n + 1)
    gx, gy = np.meshgrid(xs, xs, indexing="xy")
    nodes = np.column_stack([gx.ravel(), gy.ravel()])

    # corners (a, b, c, d) of cell (ix, iy), counterclockwise from lower left;
    # "right" cells split along a-c, the others along b-d
    iy, ix = np.divmod(np.arange(n * n), n)
    a = iy * (n + 1) + ix
    corners = np.column_stack([a, a + 1, a + n + 2, a + n + 1])
    right = (ix + iy) % 2 == 0 if pattern == "alternating" else np.full(n * n, pattern == "right")
    triangles = np.where(right[:, None, None], corners[:, [[0, 1, 2], [0, 2, 3]]],
                         corners[:, [[0, 1, 3], [1, 2, 3]]]).reshape(-1, 3)

    edges = _boundary_edges(triangles, nodes.shape[0])
    mesh = Mesh(
        nodes=nodes,
        triangles=triangles,
        edges=edges,
        edge_labels=np.full(len(edges), GAMMA1, dtype=np.int64),
    )
    _check_conforming(mesh, hull=edges)
    return mesh


def _boundary_edges(triangles: np.ndarray, n_nodes: int) -> np.ndarray:
    """The edges of exactly one triangle, directed as in it, in key order.
    Raises MeshFormatError for an edge of more than two triangles."""
    directed = triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    keys, first, counts = np.unique(_edge_keys(directed, n_nodes), return_index=True, return_counts=True)
    k = np.argmax(counts)
    if counts[k] > 2:
        edge = divmod(int(keys[k]), n_nodes)
        raise MeshFormatError(f"non-conforming mesh: edge {edge} shared by {counts[k]} triangles")
    return directed[first[counts == 1]]


def edge_groups(mesh: Mesh) -> np.ndarray:
    """Per triangle, the smallest index of a triangle in its edge-connected
    group (triangles sharing only a vertex are in different groups)."""
    keys = _edge_keys(mesh.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), mesh.n_nodes)
    order = np.argsort(keys, kind="stable")
    shared = np.flatnonzero(keys[order[1:]] == keys[order[:-1]])
    a, b = order[shared] // 3, order[shared + 1] // 3  # the two triangles of each inner edge
    group = np.arange(mesh.n_triangles)
    while True:
        ga, gb = group[a], group[b]
        if np.array_equal(ga, gb):
            return group
        # every label is a root here: hook the larger root of each edge onto
        # the smaller one, then replace each label by its root
        np.minimum.at(group, np.maximum(ga, gb), np.minimum(ga, gb))
        while not np.array_equal(group[group], group):
            group = group[group]


def classify_boundary(mesh: Mesh, predicate) -> Mesh:
    """Relabel boundary edges by evaluating predicate at edge midpoints.

    predicate maps a midpoint (2-array) to GAMMA0 or GAMMA1. At least one
    edge must come out GAMMA0, otherwise the Dirichlet problem is empty.
    """
    labels = np.array([predicate(mid) for mid in mesh.edge_midpoints()], dtype=np.int64)
    bad = ~np.isin(labels, (GAMMA0, GAMMA1))
    if np.any(bad):
        raise ValueError(
            f"predicate returned {labels[bad][0]} at edge {int(np.flatnonzero(bad)[0])}, "
            f"expected GAMMA0 ({GAMMA0}) or GAMMA1 ({GAMMA1})"
        )
    if not np.any(labels == GAMMA0):
        raise ValueError("classification produced zero Dirichlet (GAMMA0) edges")
    return replace(mesh, edge_labels=labels)


# Named Dirichlet regions of the unit square, evaluated at edge midpoints.
# A midpoint sits strictly inside its edge, so equality against 0 or 1
# identifies the side without a tolerance.
_REGIONS = {
    "bottom": lambda p: p[1] == 0.0,
    "top": lambda p: p[1] == 1.0,
    "left": lambda p: p[0] == 0.0,
    "right": lambda p: p[0] == 1.0,
    "sides": lambda p: p[0] == 0.0 or p[0] == 1.0,
    "all": lambda p: True,
}


BOUNDARY_REGIONS = tuple(sorted(_REGIONS))


def boundary_predicate(region: str):
    """Midpoint -> label predicate for a named side of the unit square."""
    try:
        inside = _REGIONS[region]
    except KeyError:
        raise ValueError(
            f"unknown boundary region {region!r}, expected one of {', '.join(sorted(_REGIONS))}"
        ) from None
    return lambda p: GAMMA0 if inside(p) else GAMMA1


class MeshGeometry:
    """Vectorized per-element geometry for the whole mesh.

    areas         (m,) triangle areas
    strain_basis  (m, 6, 3) strain of each local displacement basis
                  function, local dof order (n0x, n0y, n1x, n1y, n2x, n2y)
    dofs          (m, 6) global dof indices, dof 2*node + component
    """

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        p = mesh.nodes[mesh.triangles]  # (m, 3, 2)
        det, floor = _doubled_areas(mesh.nodes, mesh.triangles)
        if np.any(det <= floor):
            k = int(np.argmin(det))
            raise ValueError(f"degenerate or negatively oriented triangle {k}, doubled area {det[k]}")
        self.areas = 0.5 * det

        # strain of basis (node i, component c): sym(e_c outer grad_i), with
        # grad_i the barycentric gradient (gx, gy) of node i
        B = np.zeros((mesh.n_triangles, 6, 3))
        for i in range(3):
            pj = p[:, (i + 1) % 3]
            pk = p[:, (i + 2) % 3]
            gx = (pj[:, 1] - pk[:, 1]) / det
            gy = (pk[:, 0] - pj[:, 0]) / det
            B[:, 2 * i, 0] = gx
            B[:, 2 * i, 2] = 0.5 * gy
            B[:, 2 * i + 1, 1] = gy
            B[:, 2 * i + 1, 2] = 0.5 * gx
        self.strain_basis = B

        dofs = np.empty((mesh.n_triangles, 6), dtype=np.int64)
        dofs[:, 0::2] = 2 * mesh.triangles
        dofs[:, 1::2] = 2 * mesh.triangles + 1
        self.dofs = dofs

    @property
    def n_dofs(self) -> int:
        return 2 * self.mesh.n_nodes


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def _doubled_areas(nodes: np.ndarray, triangles: np.ndarray) -> tuple[np.ndarray, float]:
    """Twice the signed area of each triangle, positive when counterclockwise,
    and the floor at or below which its magnitude counts as degenerate."""
    p = nodes[triangles]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    return det, _DEGENERATE_REL * max(np.abs(nodes).max(initial=0.0) ** 2, 1.0)


def _edge_keys(edges: np.ndarray, n_nodes: int) -> np.ndarray:
    """Undirected key min * n_nodes + max of each edge."""
    i, j = edges[:, 0], edges[:, 1]
    return np.minimum(i, j) * n_nodes + np.maximum(i, j)


def _check_conforming(mesh: Mesh, hull: np.ndarray | None = None) -> None:
    """hull is _boundary_edges of the triangles if the caller has it already."""
    nt, nn = mesh.n_triangles, mesh.n_nodes
    if nt == 0 or nn < 3:
        raise MeshFormatError("mesh needs at least one triangle and three nodes")
    if mesh.edges.size and (mesh.edges.min() < 0 or mesh.edges.max() >= nn):
        raise MeshFormatError("boundary edge node index out of range")
    # a node outside every triangle has no stiffness: its rows of the system are zero
    unused = np.setdiff1d(np.arange(nn), mesh.triangles)
    if unused.size:
        raise MeshFormatError(f"node {int(unused[0])} belongs to no triangle")

    # the listed boundary must be the hull: the edges of exactly one triangle
    hull = _edge_keys(_boundary_edges(mesh.triangles, nn) if hull is None else hull, nn)
    listed, times = np.unique(_edge_keys(mesh.edges, nn), return_counts=True)
    if np.any(times > 1):
        raise MeshFormatError(f"boundary edge {divmod(int(listed[times > 1][0]), nn)} listed twice")
    missing = np.setdiff1d(hull, listed)
    if missing.size:
        raise MeshFormatError(f"boundary list is missing hull edge {divmod(int(missing[0]), nn)}")
    extra = np.setdiff1d(listed, hull)
    if extra.size:
        raise MeshFormatError(f"boundary list contains non-boundary edge {divmod(int(extra[0]), nn)}")


def _fix_orientation(nodes: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected below
        det, floor = _doubled_areas(nodes, triangles)
    if not np.all(np.isfinite(det)):
        k = int(np.argmin(np.isfinite(det)))
        raise MeshFormatError(f"triangle {k} is too large: its doubled area overflows ({det[k]})")
    if np.any(np.abs(det) <= floor):
        k = int(np.argmin(np.abs(det)))
        raise MeshFormatError(f"triangle {k} is degenerate (doubled area {det[k]})")
    flipped = triangles.copy()
    cw = det < 0
    flipped[cw, 1], flipped[cw, 2] = triangles[cw, 2], triangles[cw, 1]
    return flipped


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------


# The sections in file order, with the kind of each column: "number" is a
# finite float, "index" a non-negative int64, "label" exactly "0" or "1".
_SECTIONS = (("nodes", ("number",) * 2), ("triangles", ("index",) * 3),
             ("boundary", ("index", "index", "label")))
_EXPECTED = {"number": "a number", "index": "an integer", "label": "a boundary label"}


def load_mesh(path) -> Mesh:
    """Parse the text format, reorient clockwise triangles, validate."""
    path = str(path)
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError as exc:
        raise MeshFormatError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    # a comment ends at "\n", the only line end that line numbers count
    text = re.sub("#[^\n]*", "", text)
    tokens = text.split()

    def fail(i: int, message: str):
        ends = np.cumsum([len(line.split()) for line in text.split("\n")])
        raise MeshFormatError(f"{path}:{np.searchsorted(ends, i, side='right') + 1}: {message}")

    def walk(start: int, stop: int, kinds: tuple[str, ...]):
        """Raise at the first bad token of tokens[start:stop], whose kinds
        cycle through kinds, or at the end of the file if it comes first;
        return if there is neither."""
        for i in range(start, min(stop, len(tokens))):
            message = _token_error(tokens[i], kinds[(i - start) % len(kinds)])
            if message is not None:
                fail(i, message)
        if stop > len(tokens):
            kind = kinds[(len(tokens) - start) % len(kinds)]
            raise MeshFormatError(f"{path}: unexpected end of file, "
                                  f"expected {_EXPECTED.get(kind, f'keyword {kind!r}')}")

    pos, arrays = 0, []
    for keyword, kinds in _SECTIONS:
        walk(pos, pos + 2, (keyword, "index"))
        # a Python int: count * width can pass 2**63 in a malformed file
        start, pos = pos + 2, pos + 2 + int(tokens[pos + 1]) * len(kinds)
        values = _bulk(tokens[start:pos], kinds) if pos <= len(tokens) else None
        if values is None:
            walk(start, pos, kinds)
        arrays.append(values)
    if pos < len(tokens):
        fail(pos, f"trailing content {tokens[pos]!r} after boundary section")

    nodes, triangles, boundary = arrays
    try:
        if triangles.size and triangles.max() >= nodes.shape[0]:
            raise MeshFormatError(f"triangle refers to node {triangles.max()}, "
                                  f"but only {nodes.shape[0]} nodes are defined")
        mesh = Mesh(nodes=nodes, triangles=_fix_orientation(nodes, triangles),
                    edges=boundary[:, :2], edge_labels=boundary[:, 2])
        _check_conforming(mesh)
    except MeshFormatError as exc:
        raise MeshFormatError(f"{path}: {exc}") from None
    return mesh


def _bulk(block: list[str], kinds: tuple[str, ...]) -> np.ndarray | None:
    """The tokens as rows of len(kinds) columns, converted in one step, or
    None if any token is bad: the tests of _token_error on whole arrays."""
    width = len(kinds)
    try:
        values = np.array(block, dtype=float if "number" in kinds else np.int64).reshape(-1, width)
    except (ValueError, OverflowError):
        return None
    if "number" in kinds:
        return values if np.all(np.isfinite(values)) else None
    labels = set(block[width - 1::width]) if kinds[-1] == "label" else set()
    return values if values.min(initial=0) >= 0 and labels <= {"0", "1"} else None


def _token_error(tok: str, kind: str) -> str | None:
    """Why tok is not a token of kind, or None if it is one. A kind that is
    not in _EXPECTED is a keyword, which tok must equal."""
    if kind not in _EXPECTED:
        return None if tok == kind else f"expected keyword {kind!r}, got {tok!r}"
    if kind == "label":
        return None if tok in ("0", "1") else (
            f"boundary label must be 0 (Dirichlet) or 1 (traction), got {tok!r}")
    try:
        value = float(tok) if kind == "number" else int(tok)
    except ValueError:
        return f"expected {_EXPECTED[kind]}, got {tok!r}"
    if kind == "number":
        return None if math.isfinite(value) else f"expected a finite number, got {tok!r}"
    if value < 0:
        return f"expected a non-negative integer, got {value}"
    if value > np.iinfo(np.int64).max:
        return f"integer {value} is too large for a 64-bit index"
    return None

