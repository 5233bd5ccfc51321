"""Decomposition validator checks and mutation sensitivity."""

from __future__ import annotations

import pytest

from helpers import complete_graph, path_graph
from tdsolve.graphs import Graph, TreeDecomposition
from tdsolve.validator import ViolationKind, validate


def kinds(violations):
    return {v.kind for v in violations}


def test_valid_decomposition_passes():
    g = path_graph(3)
    td = TreeDecomposition.from_parents([{0, 1}, {1, 2}], [0, 0])
    assert validate(g, td) == []


def test_path_shape_check():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    star = TreeDecomposition.from_parents([{0, 1}, {0, 2}, {0, 3}], [0, 0, 0])
    assert validate(g, star) == []
    violations = validate(g, star, expect_path=True)
    assert kinds(violations) == {ViolationKind.PATH_SHAPE}
    assert "node 0 has 2 children" in violations[0].detail
    path = TreeDecomposition.from_parents([{0, 1}, {0, 2}, {0, 3}], [0, 0, 1])
    assert validate(g, path, expect_m=3, expect_w=2, expect_path=True) == []


def test_running_intersection_break_detected():
    # vertex 1 sits in nodes 0 and 2 but not in node 1 between them
    g = path_graph(3)
    td = TreeDecomposition.from_parents([{0, 1}, {0, 2}, {1, 2}], [0, 0, 1])
    violations = validate(g, td)
    assert kinds(violations) == {ViolationKind.CONNECTEDNESS}
    assert "vertex 1" in violations[0].detail


def test_missing_vertex_and_edges_detected():
    g = complete_graph(3)
    td = TreeDecomposition.from_parents([{0, 1}], [0])
    violations = validate(g, td)
    assert kinds(violations) == {ViolationKind.COVERAGE, ViolationKind.EDGE}
    uncovered = [v.detail for v in violations if v.kind is ViolationKind.EDGE]
    assert len(uncovered) == 2  # edges (0,2) and (1,2)


def test_all_violations_reported_not_just_first():
    g = complete_graph(3)
    td = TreeDecomposition(nodes=(frozenset({0}),), parent=(1,))
    violations = validate(g, td)
    assert ViolationKind.TREE_SHAPE in kinds(violations)
    assert ViolationKind.COVERAGE in kinds(violations)
    assert ViolationKind.EDGE in kinds(violations)


def test_tree_shape_problems():
    nodes = (frozenset({0}), frozenset({0}), frozenset({0}))
    g = Graph.from_edges(1, [])
    for parent, detail in [
        ((1, 0, 0), "parent[0] is 1, expected 0"),
        ((0, 3, 0), "parent[1] = 3 out of range"),
        ((0, -1, 0), "parent[1] = -1 out of range"),
        ((0, 1, 0), "node 1 is its own parent"),
        ((0, 2, 1), "node 1 does not reach the root"),
    ]:
        violations = validate(g, TreeDecomposition(nodes, parent))
        assert ViolationKind.TREE_SHAPE in kinds(violations), parent
        assert detail in [v.detail for v in violations], parent


def test_vertex_out_of_range_is_coverage():
    g = Graph.from_edges(2, [(0, 1)])
    td = TreeDecomposition.from_parents([{0, 1, 7}], [0])
    violations = validate(g, td)
    assert kinds(violations) == {ViolationKind.COVERAGE}


def test_expected_width_and_node_count():
    g = path_graph(3)
    td = TreeDecomposition.from_parents([{0, 1}, {1, 2}], [0, 0])
    assert validate(g, td, expect_m=2, expect_w=2) == []
    violations = validate(g, td, expect_m=3, expect_w=1)
    assert kinds(violations) == {ViolationKind.WIDTH, ViolationKind.NODE_COUNT}


def test_empty_and_duplicate_nodes_are_legal():
    g = path_graph(2)
    td = TreeDecomposition.from_parents([{0, 1}, {0, 1}, set()], [0, 0, 1])
    assert validate(g, td) == []


def test_malformed_input_is_an_error_not_a_violation():
    g = path_graph(2)
    with pytest.raises(ValueError):
        validate(g, TreeDecomposition(nodes=(frozenset({0, 1}),), parent=(0, 0)))
    with pytest.raises(ValueError):
        validate(g, TreeDecomposition(nodes=(), parent=()))


def test_validate_is_deterministic():
    g = complete_graph(4)
    td = TreeDecomposition.from_parents([{0, 1}, {1, 2}], [0, 0])
    first = validate(g, td)
    assert first == validate(g, td)
    assert [v.kind for v in first] == sorted(
        (v.kind for v in first), key=[k for k in ViolationKind].index
    )
