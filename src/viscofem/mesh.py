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

Blank lines and "#" comments are allowed anywhere. Triangles given clockwise
are accepted and silently reoriented; degenerate ones are rejected.
"""

from __future__ import annotations

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
    det, floor = _doubled_areas(nodes, triangles)
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


def load_mesh(path) -> Mesh:
    """Parse the text format, reorient clockwise triangles, validate."""
    reader = _TokenReader(path)
    nodes = np.array(
        [[reader.take_float(), reader.take_float()] for _ in range(reader.take_count("nodes"))]
    ).reshape(-1, 2)
    triangles = np.array(
        [
            [reader.take_index(), reader.take_index(), reader.take_index()]
            for _ in range(reader.take_count("triangles"))
        ],
        dtype=np.int64,
    ).reshape(-1, 3)
    boundary = np.array(
        [
            [reader.take_index(), reader.take_index(), reader.take_label()]
            for _ in range(reader.take_count("boundary"))
        ],
        dtype=np.int64,
    ).reshape(-1, 3)
    reader.expect_end()

    if triangles.size and triangles.max() >= nodes.shape[0]:
        raise MeshFormatError(
            f"{reader.path}: triangle refers to node {triangles.max()}, "
            f"but only {nodes.shape[0]} nodes are defined"
        )
    triangles = _fix_orientation(nodes, triangles)
    mesh = Mesh(nodes=nodes, triangles=triangles, edges=boundary[:, :2], edge_labels=boundary[:, 2])
    try:
        _check_conforming(mesh)
    except MeshFormatError as exc:
        raise MeshFormatError(f"{reader.path}: {exc}") from None
    return mesh


class _TokenReader:
    """Whitespace token stream with line tracking and '#' comments."""

    def __init__(self, path):
        self.path = str(path)
        try:
            with open(path, encoding="utf-8") as f:
                text = f.read()
        except UnicodeDecodeError as exc:
            raise MeshFormatError(
                f"{self.path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
        self._tokens: list[tuple[str, int]] = []
        # not splitlines(), which also splits at \f, \v and more and shifts line numbers
        for ln, line in enumerate(text.split("\n"), start=1):
            body = line.split("#", 1)[0]
            for tok in body.split():
                self._tokens.append((tok, ln))
        self._pos = 0

    def _take(self, what: str) -> tuple[str, int]:
        if self._pos >= len(self._tokens):
            raise MeshFormatError(f"{self.path}: unexpected end of file, expected {what}")
        tok = self._tokens[self._pos]
        self._pos += 1
        return tok

    def take_count(self, keyword: str) -> int:
        tok, ln = self._take(f"keyword {keyword!r}")
        if tok != keyword:
            raise MeshFormatError(f"{self.path}:{ln}: expected keyword {keyword!r}, got {tok!r}")
        count = self.take_index()
        return count

    def take_float(self) -> float:
        tok, ln = self._take("a number")
        try:
            v = float(tok)
        except ValueError:
            raise MeshFormatError(f"{self.path}:{ln}: expected a number, got {tok!r}") from None
        if not np.isfinite(v):
            raise MeshFormatError(f"{self.path}:{ln}: expected a finite number, got {tok!r}")
        return v

    def take_index(self) -> int:
        tok, ln = self._take("an integer")
        try:
            v = int(tok)
        except ValueError:
            raise MeshFormatError(f"{self.path}:{ln}: expected an integer, got {tok!r}") from None
        if v < 0:
            raise MeshFormatError(f"{self.path}:{ln}: expected a non-negative integer, got {v}")
        if v > np.iinfo(np.int64).max:
            raise MeshFormatError(f"{self.path}:{ln}: integer {v} is too large for a 64-bit index")
        return v

    def take_label(self) -> int:
        tok, ln = self._take("a boundary label")
        if tok not in ("0", "1"):
            raise MeshFormatError(
                f"{self.path}:{ln}: boundary label must be 0 (Dirichlet) or 1 (traction), got {tok!r}"
            )
        return int(tok)

    def expect_end(self) -> None:
        if self._pos < len(self._tokens):
            tok, ln = self._tokens[self._pos]
            raise MeshFormatError(f"{self.path}:{ln}: trailing content {tok!r} after boundary section")
