"""Mesh construction, classification, geometry and text format tests."""

import dataclasses
import re
import warnings
from contextlib import suppress

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from viscofem.mesh import (
    GAMMA0,
    GAMMA1,
    MAX_DIVISIONS,
    Mesh,
    MeshFormatError,
    MeshGeometry,
    _check_conforming,
    build_unit_square,
    classify_boundary,
    edge_groups,
    load_mesh,
)

from oracles import (as_csr, delaunay_mesh, element_strain_basis, gradients, loop_edge_groups,
                     loop_unit_square_triangles, save_mesh)


def one_triangle(points) -> Mesh:
    """Mesh of the single triangle (0, 1, 2) with the given vertices."""
    return Mesh(
        nodes=np.asarray(points, dtype=float),
        triangles=np.array([[0, 1, 2]]),
        edges=np.array([[0, 1], [1, 2], [2, 0]]),
        edge_labels=np.array([GAMMA1, GAMMA1, GAMMA0]),
    )


class TestBuild:
    def test_counts_n1(self):
        mesh = build_unit_square(1, pattern="right")
        assert mesh.n_nodes == 4
        assert mesh.n_triangles == 2
        assert len(mesh.edges) == 4
        assert np.all(mesh.edge_labels == GAMMA1)

    def test_counts_n40(self):
        mesh = build_unit_square(40)
        assert mesh.n_nodes == 1681
        assert mesh.n_triangles == 3200
        assert len(mesh.edges) == 160

    @pytest.mark.parametrize("pattern", ["right", "left", "alternating"])
    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_areas_and_orientation(self, n, pattern):
        mesh = build_unit_square(n, pattern=pattern)
        geom = MeshGeometry(mesh)
        # uniform split: every triangle covers half a grid cell
        assert_allclose(geom.areas, 1.0 / (2 * n * n), rtol=1e-12)
        assert geom.areas.sum() == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("pattern", ["right", "left", "alternating"])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 40])
    def test_triangles_match_cell_loop(self, n, pattern):
        mesh = build_unit_square(n, pattern=pattern)
        _check_conforming(mesh)
        reference = loop_unit_square_triangles(n, pattern)
        assert mesh.triangles.dtype == reference.dtype
        assert np.array_equal(mesh.triangles, reference)

    @pytest.mark.parametrize("pattern", ["right", "left", "alternating"])
    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_boundary_is_the_square_counterclockwise(self, n, pattern):
        mesh = build_unit_square(n, pattern=pattern)

        def nid(ix, iy):
            return iy * (n + 1) + ix

        # the 4n unit-square sides, walked counterclockwise
        sides = (
            [(nid(i, 0), nid(i + 1, 0)) for i in range(n)]
            + [(nid(n, j), nid(n, j + 1)) for j in range(n)]
            + [(nid(n - i, n), nid(n - i - 1, n)) for i in range(n)]
            + [(nid(0, n - j), nid(0, n - j - 1)) for j in range(n)]
        )
        edges = [tuple(e) for e in mesh.edges.tolist()]
        assert len(edges) == 4 * n
        assert set(edges) == set(sides)
        # the third vertex of each edge's triangle lies to its left
        for a, b in edges:
            (tri,) = [t for t in mesh.triangles.tolist() if a in t and b in t]
            (c,) = set(tri) - {a, b}
            d1 = mesh.nodes[b] - mesh.nodes[a]
            d2 = mesh.nodes[c] - mesh.nodes[a]
            assert d1[0] * d2[1] - d1[1] * d2[0] > 0.0

    def test_alternating_flips_neighbor_cells(self):
        mesh = build_unit_square(2, pattern="alternating")
        # cell (0,0) uses the lower-left node in both triangles, cell (1,0)
        # must use the other diagonal, so its two triangles share node 1 and 6
        t = mesh.triangles
        first_cell = {tuple(t[0]), tuple(t[1])}
        second_cell = {tuple(t[2]), tuple(t[3])}
        assert all(0 in tri for tri in first_cell)
        assert not all(3 in tri for tri in second_cell)

    def test_nodes_on_lattice(self):
        n = 5
        mesh = build_unit_square(n)
        assert_allclose(sorted(set(np.round(mesh.nodes[:, 0], 12))), np.linspace(0, 1, n + 1))
        assert mesh.nodes.min() == 0.0 and mesh.nodes.max() == 1.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="n="):
            build_unit_square(0)
        with pytest.raises(ValueError, match="pattern"):
            build_unit_square(3, pattern="diagonal")
        with pytest.raises(ValueError, match="n="):
            build_unit_square(MAX_DIVISIONS + 1)


class TestEdgeGroups:
    def test_structured_square_is_one_group(self):
        mesh = build_unit_square(7)
        # shuffled, so the hooking cannot follow the row-by-row numbering
        order = np.random.default_rng(5).permutation(mesh.n_triangles)
        for triangles in (mesh.triangles, mesh.triangles[order]):
            shuffled = Mesh(mesh.nodes, triangles, mesh.edges, mesh.edge_labels)
            assert np.array_equal(edge_groups(shuffled), np.zeros(mesh.n_triangles))

    def test_vertex_contact_does_not_join(self):
        # a bow-tie: two triangles that share node 0 only
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        mesh = Mesh(nodes, np.array([[0, 1, 2], [0, 3, 4]]), np.empty((0, 2), dtype=int),
                    np.empty(0, dtype=int))
        assert edge_groups(mesh).tolist() == [0, 1]

    def test_matches_union_find_on_punctured_meshes(self):
        # random subsets of an unstructured mesh fall apart into several groups
        rng = np.random.default_rng(6)
        full = delaunay_mesh(n=8, seed=3)
        for keep in (0.3, 0.5, 0.7):
            triangles = full.triangles[rng.random(full.n_triangles) < keep]
            mesh = Mesh(full.nodes, triangles, full.edges, full.edge_labels)
            expected = loop_edge_groups(triangles)
            assert np.unique(expected).size > 1
            assert np.array_equal(edge_groups(mesh), expected)


class TestClassify:
    def test_top_counts(self):
        mesh = classify_boundary(build_unit_square(40), "top")
        assert int(np.sum(mesh.edge_labels == GAMMA0)) == 40
        assert int(np.sum(mesh.edge_labels == GAMMA1)) == 120

    def test_sides_counts(self):
        mesh = classify_boundary(build_unit_square(40), "sides")
        assert int(np.sum(mesh.edge_labels == GAMMA0)) == 80
        assert int(np.sum(mesh.edge_labels == GAMMA1)) == 80

    def test_full_dirichlet_allowed(self):
        mesh = classify_boundary(build_unit_square(4), "all")
        assert np.all(mesh.edge_labels == GAMMA0)

    def test_labels_follow_midpoints(self):
        # each edge alone, against the side its midpoint lies on
        on = {"bottom": lambda x, y: y == 0.0, "top": lambda x, y: y == 1.0,
              "left": lambda x, y: x == 0.0, "right": lambda x, y: x == 1.0,
              "sides": lambda x, y: x in (0.0, 1.0), "all": lambda x, y: True}
        for n in (1, 3, 40):
            for region, inside in on.items():
                mesh = classify_boundary(build_unit_square(n, pattern="right"), region)
                expected = [GAMMA0 if inside(x, y) else GAMMA1 for x, y in mesh.edge_midpoints()]
                assert mesh.edge_labels.tolist() == expected, (region, n)

    def test_rejects_empty_dirichlet(self):
        # the square (2, 3)^2 has no edge on y = 0
        mesh = build_unit_square(3)
        shifted = Mesh(mesh.nodes + 2.0, mesh.triangles, mesh.edges, mesh.edge_labels)
        with pytest.raises(ValueError, match="gamma0 = bottom gives zero Dirichlet"):
            classify_boundary(shifted, "bottom")

    def test_file_keeps_the_stored_labels(self):
        labels = np.tile([GAMMA0, GAMMA1, GAMMA1], 4)
        mesh = dataclasses.replace(build_unit_square(3), edge_labels=labels)
        assert classify_boundary(mesh, "file") is mesh
        with pytest.raises(ValueError, match="gamma0 = file gives zero Dirichlet"):
            classify_boundary(build_unit_square(3), "file")

    def test_rejects_unknown_name(self):
        with pytest.raises(ValueError, match="unknown gamma0 'middle', expected one of all, "
                                             "bottom, left, right, sides, top, file"):
            classify_boundary(build_unit_square(3), "middle")

    def test_original_mesh_untouched(self):
        mesh = build_unit_square(3)
        classified = classify_boundary(mesh, "top")
        assert np.all(mesh.edge_labels == GAMMA1)
        assert classified is not mesh


class TestGeometry:
    def test_reference_triangle(self):
        geom = MeshGeometry(one_triangle([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        assert geom.areas[0] == pytest.approx(0.5)
        assert_allclose(gradients(geom)[0], [[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])

    def test_gradients_reproduce_barycentric_deltas(self):
        # grad of barycentric i dotted with (p_j - p_i) must be -1 for j != i
        rng = np.random.default_rng(12)
        mesh = build_unit_square(4)
        mesh = Mesh(
            nodes=mesh.nodes + 0.02 * rng.standard_normal(mesh.nodes.shape) * (
                (mesh.nodes[:, :1] > 0) & (mesh.nodes[:, :1] < 1)
                & (mesh.nodes[:, 1:] > 0) & (mesh.nodes[:, 1:] < 1)
            ),
            triangles=mesh.triangles,
            edges=mesh.edges,
            edge_labels=mesh.edge_labels,
        )
        for k in range(mesh.n_triangles):
            p = mesh.nodes[mesh.triangles[k]]
            grads = gradients(MeshGeometry(one_triangle(p)))[0]
            for i in range(3):
                for j in range(3):
                    expected = 1.0 if i == j else 0.0
                    # barycentric i is affine with value delta_ij at vertex j
                    got = grads[i] @ (p[j] - p[0]) + (1.0 if i == 0 else 0.0)
                    assert got == pytest.approx(expected, abs=1e-12)

    def test_strain_basis_layout(self):
        # column d of S is the strain of basis function d: rows 3k..3k+2
        # of element k hold its local basis strains, 12 stored entries
        mesh = delaunay_mesh(n=4, seed=3)
        geom = MeshGeometry(mesh)
        m = mesh.n_triangles
        S = as_csr(geom.S).toarray()
        assert S.shape == (3 * m, geom.n_dofs)
        assert np.array_equal(geom.S.indptr, np.append(12 * np.arange(m)[:, None] + [0, 3, 6], 12 * m))
        assert geom.S.indptr.dtype == geom.S.indices.dtype == np.int32
        basis, dofs = element_strain_basis(mesh)
        for k in range(m):
            assert np.array_equal(S[3 * k:3 * k + 3][:, dofs[k]], basis[k].T)
            others = np.setdiff1d(np.arange(geom.n_dofs), dofs[k])
            assert not S[3 * k:3 * k + 3][:, others].any()
        assert np.array_equal(geom.dofs, dofs)
        assert np.array_equal(geom.inner_weights, np.repeat(geom.areas, 3) * np.tile([1.0, 1.0, 2.0], m))

    def test_degenerate_triangle_rejected(self):
        mesh = one_triangle([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="degenerate"):
            MeshGeometry(mesh)


class TestTextFormat:
    def test_round_trip(self, tmp_path):
        mesh = classify_boundary(build_unit_square(3, pattern="alternating"), "top")
        path = tmp_path / "mesh.txt"
        save_mesh(mesh, path)
        back = load_mesh(path)
        assert np.array_equal(back.nodes, mesh.nodes)
        assert np.array_equal(back.triangles, mesh.triangles)
        assert np.array_equal(back.edges, mesh.edges)
        assert np.array_equal(back.edge_labels, mesh.edge_labels)

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "mesh.txt"
        path.write_text(
            "# reference triangle\n"
            "nodes 3\n"
            "0 0\n1 0   # second corner\n\n0 1\n"
            "triangles 1\n0 1 2\n"
            "boundary 3\n0 1 1\n1 2 1\n2 0 0\n"
        )
        mesh = load_mesh(path)
        assert mesh.n_nodes == 3 and mesh.n_triangles == 1
        assert list(mesh.edge_labels) == [1, 1, 0]

    def test_clockwise_triangle_reoriented(self, tmp_path):
        path = tmp_path / "mesh.txt"
        path.write_text(
            "nodes 3\n0 0\n1 0\n0 1\n"
            "triangles 1\n0 2 1\n"  # clockwise on purpose
            "boundary 3\n0 1 1\n1 2 1\n2 0 0\n"
        )
        mesh = load_mesh(path)
        assert list(mesh.triangles[0]) == [0, 1, 2]
        assert MeshGeometry(mesh).areas[0] == pytest.approx(0.5)

    def test_out_of_range_index(self, tmp_path):
        path = tmp_path / "mesh.txt"
        path.write_text(
            "nodes 3\n0 0\n1 0\n0 1\n"
            "triangles 1\n0 1 7\n"
            "boundary 3\n0 1 1\n1 2 1\n2 0 0\n"
        )
        with pytest.raises(MeshFormatError, match="node 7"):
            load_mesh(path)

    def test_boundary_edge_index_out_of_range(self, tmp_path):
        path = tmp_path / "mesh.txt"
        path.write_text(
            "nodes 3\n0 0\n1 0\n0 1\n"
            "triangles 1\n0 1 2\n"
            "boundary 3\n0 1 1\n1 9 1\n2 0 0\n"
        )
        with pytest.raises(MeshFormatError, match="boundary edge node index out of range"):
            load_mesh(path)

    def test_triangle_without_nodes(self, tmp_path):
        path = tmp_path / "mesh.txt"
        path.write_text("nodes 0\ntriangles 1\n0 1 2\nboundary 0\n")
        with pytest.raises(MeshFormatError, match="node 2, but only 0 nodes"):
            load_mesh(path)

    def test_degenerate_rejected(self, tmp_path):
        path = tmp_path / "mesh.txt"
        path.write_text(
            "nodes 3\n0 0\n1 0\n2 0\n"
            "triangles 1\n0 1 2\n"
            "boundary 3\n0 1 1\n1 2 1\n2 0 0\n"
        )
        with pytest.raises(MeshFormatError, match=re.escape(
                f"{path}: triangle 0 is degenerate (doubled area 0.0)")):
            load_mesh(path)

    @pytest.mark.parametrize("nodes,area", [("0 0\n1e200 0\n0 1e200", "inf"),
                                            ("0 0\n1e200 1e200\n1e200 1e200", "nan")])
    def test_overflowing_area_rejected(self, tmp_path, nodes, area):
        path = tmp_path / "mesh.txt"
        path.write_text(f"nodes 3\n{nodes}\ntriangles 1\n0 1 2\nboundary 3\n0 1 1\n1 2 1\n2 0 0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MeshFormatError, match=re.escape(
                    f"{path}: triangle 0 is too large: its doubled area overflows ({area})")):
                load_mesh(path)

    def test_nonconforming_shared_edge(self, tmp_path):
        path = tmp_path / "mesh.txt"
        path.write_text(
            "nodes 5\n0 0\n1 0\n0.5 1\n0.5 -1\n2 1\n"
            "triangles 3\n0 1 2\n0 1 3\n0 1 4\n"
            "boundary 0\n"
        )
        with pytest.raises(MeshFormatError, match="shared by 3"):
            load_mesh(path)

    def test_boundary_list_must_cover_hull(self, tmp_path):
        path = tmp_path / "mesh.txt"
        path.write_text(
            "nodes 3\n0 0\n1 0\n0 1\n"
            "triangles 1\n0 1 2\n"
            "boundary 2\n0 1 1\n1 2 1\n"
        )
        with pytest.raises(MeshFormatError, match="missing hull edge"):
            load_mesh(path)

    def test_boundary_list_rejects_interior_edge(self, tmp_path):
        path = tmp_path / "mesh.txt"
        path.write_text(
            "nodes 4\n0 0\n1 0\n1 1\n0 1\n"
            "triangles 2\n0 1 2\n0 2 3\n"
            "boundary 5\n0 1 1\n1 2 1\n2 3 1\n3 0 0\n0 2 1\n"
        )
        with pytest.raises(MeshFormatError, match=r"non-boundary edge \(0, 2\)"):
            load_mesh(path)

    def test_boundary_list_rejects_duplicates(self, tmp_path):
        path = tmp_path / "mesh.txt"
        path.write_text(
            "nodes 3\n0 0\n1 0\n0 1\n"
            "triangles 1\n0 1 2\n"
            "boundary 4\n0 1 1\n1 2 1\n2 0 0\n0 1 1\n"
        )
        with pytest.raises(MeshFormatError, match="twice"):
            load_mesh(path)

    def test_bad_label_is_line_anchored(self, tmp_path):
        path = tmp_path / "mesh.txt"
        path.write_text(
            "nodes 3\n0 0\n1 0\n0 1\n"
            "triangles 1\n0 1 2\n"
            "boundary 3\n0 1 1\n1 2 5\n2 0 0\n"
        )
        with pytest.raises(MeshFormatError, match=r"mesh\.txt:9"):
            load_mesh(path)

    def test_node_outside_every_triangle_rejected(self, tmp_path):
        path = tmp_path / "mesh.txt"
        path.write_text(
            "nodes 4\n0 0\n1 0\n0 1\n5 5\n"
            "triangles 1\n0 1 2\n"
            "boundary 3\n0 1 1\n1 2 1\n2 0 0\n"
        )
        with pytest.raises(MeshFormatError, match=r"mesh\.txt: node 3 belongs to no triangle"):
            load_mesh(path)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_node_is_line_anchored(self, tmp_path, token):
        path = tmp_path / "mesh.txt"
        path.write_text(
            f"nodes 3\n0 0\n1 0\n{token} 1\n"
            "triangles 1\n0 1 2\n"
            "boundary 3\n0 1 1\n1 2 1\n2 0 0\n"
        )
        with pytest.raises(MeshFormatError, match=r"mesh\.txt:4: expected a finite number"):
            load_mesh(path)

    @pytest.mark.parametrize("triangle,edge,line", [
        (f"0 1 {2**63}", "2 0 0", 6),
        ("0 1 2", f"{2**64} 0 0", 10),
    ])
    def test_index_beyond_int64_is_line_anchored(self, tmp_path, triangle, edge, line):
        path = tmp_path / "mesh.txt"
        path.write_text(
            "nodes 3\n0 0\n1 0\n0 1\n"
            f"triangles 1\n{triangle}\n"
            f"boundary 3\n0 1 1\n1 2 1\n{edge}\n"
        )
        with pytest.raises(MeshFormatError, match=rf"mesh\.txt:{line}: integer \d+ is too large"):
            load_mesh(path)

    def test_largest_int64_index_reaches_range_check(self, tmp_path):
        path = tmp_path / "mesh.txt"
        path.write_text(
            "nodes 3\n0 0\n1 0\n0 1\n"
            f"triangles 1\n0 1 {2**63 - 1}\n"
            "boundary 3\n0 1 1\n1 2 1\n2 0 0\n"
        )
        with pytest.raises(MeshFormatError, match=f"node {2**63 - 1}, but only 3 nodes"):
            load_mesh(path)

    def test_non_utf8_byte_names_file(self, tmp_path):
        path = tmp_path / "mesh.txt"
        path.write_bytes(
            b"# caf\xe9 mesh\n"
            b"nodes 3\n0 0\n1 0\n0 1\n"
            b"triangles 1\n0 1 2\n"
            b"boundary 3\n0 1 1\n1 2 1\n2 0 0\n"
        )
        with pytest.raises(MeshFormatError, match=re.escape(
                f"{path}: not UTF-8 text (invalid continuation byte at byte 5)")):
            load_mesh(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "mesh.txt"
        path.write_text("nodes 3\n0 0\n1 0\n")
        with pytest.raises(MeshFormatError, match="unexpected end"):
            load_mesh(path)

    def test_boundary_count_beyond_file(self, tmp_path):
        path = tmp_path / "mesh.txt"
        path.write_text(
            "nodes 3\n0 0\n1 0\n0 1\n"
            "triangles 1\n0 1 2\n"
            "boundary 10000000000000\n0 1 1\n1 2 1\n2 0 0\n"
        )
        with pytest.raises(MeshFormatError, match="unexpected end of file"):
            load_mesh(path)

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "mesh.txt"
        path.write_text(
            "nodes 3\n0 0\n1 0\n0 1\n"
            "triangles 1\n0 1 2\n"
            "boundary 3\n0 1 1\n1 2 1\n2 0 0\nextra\n"
        )
        with pytest.raises(MeshFormatError, match="trailing"):
            load_mesh(path)

    # the reference triangle, one token row per line: line k is TRIANGLE_LINES[k - 1]
    TRIANGLE_LINES = ["nodes 3", "0 0", "1 0", "0 1", "triangles 1", "0 1 2",
                      "boundary 3", "0 1 1", "1 2 1", "2 0 0"]
    MESSAGES = [
        ({1: "node 3"}, 1, "expected keyword 'nodes', got 'node'"),
        ({5: "triangle 1"}, 5, "expected keyword 'triangles', got 'triangle'"),
        ({1: "nodes three"}, 1, "expected an integer, got 'three'"),
        ({1: "nodes -3"}, 1, "expected a non-negative integer, got -3"),
        ({4: "0 one"}, 4, "expected a number, got 'one'"),
        ({4: "0 inf"}, 4, "expected a finite number, got 'inf'"),
        ({6: "0 1 2.0"}, 6, "expected an integer, got '2.0'"),
        ({6: "0 -1 2"}, 6, "expected a non-negative integer, got -1"),
        ({9: f"1 {2**63} 1"}, 9, f"integer {2**63} is too large for a 64-bit index"),
        ({9: "1 2 5"}, 9, "boundary label must be 0 (Dirichlet) or 1 (traction), got '5'"),
        ({10: "2 0 +0"}, 10, "boundary label must be 0 (Dirichlet) or 1 (traction), got '+0'"),
        ({10: "2 0 0 extra"}, 10, "trailing content 'extra' after boundary section"),
        # two bad tokens in one block: the earlier one is reported, whatever its kind
        ({3: "inf 0", 4: "0 one"}, 3, "expected a finite number, got 'inf'"),
        ({6: "0 -1 2", 8: "0 x 1"}, 6, "expected a non-negative integer, got -1"),
        ({8: "0 1 7", 9: "x 2 1"}, 8, "boundary label must be 0 (Dirichlet) or 1 (traction), got '7'"),
        # tokens in comments do not count, and only "\n" ends a line
        ({2: "0 0  # 5 5 5", 3: "1\f0\v", 4: "0 one"}, 4, "expected a number, got 'one'"),
    ]

    @pytest.mark.parametrize("edits,line,message", MESSAGES)
    def test_message_is_line_anchored(self, tmp_path, edits, line, message):
        lines = [edits.get(k, text) for k, text in enumerate(self.TRIANGLE_LINES, start=1)]
        path = tmp_path / "mesh.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MeshFormatError, match=re.escape(f"{path}:{line}: {message}") + "$"):
            load_mesh(path)

    @pytest.mark.parametrize("keep,text,expected", [
        (0, "", "keyword 'nodes'"),
        (0, "nodes", "an integer"),
        (3, "", "a number"),
        (4, "", "keyword 'triangles'"),
        (5, "0 1", "an integer"),
        (9, "2 0", "a boundary label"),
        (0, "nodes 9223372036854775807", "a number"),
    ])
    def test_unexpected_end_names_what_was_expected(self, tmp_path, keep, text, expected):
        path = tmp_path / "mesh.txt"
        path.write_text("\n".join(self.TRIANGLE_LINES[:keep] + [text, "# end"]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MeshFormatError, match=re.escape(
                    f"{path}: unexpected end of file, expected {expected}") + "$"):
                load_mesh(path)

    def test_n40_round_trip_counts(self, tmp_path):
        mesh = classify_boundary(build_unit_square(40), "sides")
        path = tmp_path / "big.txt"
        save_mesh(mesh, path)
        back = load_mesh(path)
        assert back.n_nodes == 1681 and back.n_triangles == 3200
        assert int(np.sum(back.edge_labels == GAMMA0)) == 80


# ---------------------------------------------------------------------------
# malformed files (hypothesis): only MeshFormatError may escape load_mesh
# ---------------------------------------------------------------------------


SQUARE_LINES = ["nodes 4", "0 0", "1 0", "1 1", "0 1", "triangles 2", "0 1 2", "0 2 3",
                "boundary 4", "0 1 1", "1 2 1", "2 3 0", "3 0 1"]
MESH_TOKENS = st.one_of(
    st.integers(-2, 5).map(str),
    st.integers(2**63 - 2, 2**64).map(str),
    st.sampled_from(["nodes", "triangles", "boundary", "#", "nan", "-inf", "1e999", "0.5",
                     "1_0", "\u0663", "\u00b2", "\n", "\f", "\r"]),
    st.text(max_size=4),
)
FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)


class TestMalformedFiles:
    @FUZZ
    @given(edits=st.lists(st.tuples(st.integers(0, len(SQUARE_LINES) - 1), st.integers(0, 2),
                                    MESH_TOKENS), min_size=1, max_size=3))
    def test_edited_tokens(self, tmp_path_factory, edits):
        lines = [line.split() for line in SQUARE_LINES]
        for row, col, token in edits:
            lines[row][col % len(lines[row])] = token
        path = tmp_path_factory.mktemp("fuzz") / "mesh.txt"
        path.write_text("\n".join(map(" ".join, lines)) + "\n", encoding="utf-8")
        with suppress(MeshFormatError):
            load_mesh(path)

    @FUZZ
    @given(data=st.binary(max_size=200))
    def test_arbitrary_bytes(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("fuzz") / "mesh.txt"
        path.write_bytes(data)
        with suppress(MeshFormatError):
            load_mesh(path)
