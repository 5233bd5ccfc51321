"""Graph and TreeDecomposition construction."""

from __future__ import annotations

import pytest

from helpers import decomposition
from tdsolve.graphs import Graph, TreeDecomposition


def test_from_edges_normalizes_orientation_and_duplicates():
    a = Graph.from_edges(4, [(1, 0), (0, 1), (2, 3), (3, 2), (1, 2)])
    b = Graph.from_edges(4, [(1, 2), (0, 1), (2, 3)])
    assert a == b
    assert a.edges == ((0, 1), (1, 2), (2, 3))
    assert a.adjacency[1] == {0, 2}
    assert len(a.adjacency[1]) == 2


def test_from_edges_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 2)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(1, 1)])
    with pytest.raises(ValueError):
        Graph.from_edges(-1, [])


def test_adjacency_is_symmetric():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 4), (0, 4)])
    for u in range(g.n):
        for v in g.adjacency[u]:
            assert u in g.adjacency[v]


def test_records_are_immutable_values():
    g = Graph.from_edges(3, [(1, 0), (2, 1)])
    assert g == Graph(
        n=3,
        edges=((0, 1), (1, 2)),
        adjacency=(frozenset({1}), frozenset({0, 2}), frozenset({1})),
    )
    assert repr(g) == (
        "Graph(n=3, edges=((0, 1), (1, 2)), "
        "adjacency=(frozenset({1}), frozenset({0, 2}), frozenset({1})))"
    )
    td = TreeDecomposition(nodes=(frozenset({0, 1}), frozenset({1, 2})), parent=(0, 0))
    assert repr(td) == "TreeDecomposition(nodes=(frozenset({0, 1}), frozenset({1, 2})), parent=(0, 0))"
    assert (td.m, td.width) == (2, 2)
    assert td == decomposition([{0, 1}, {1, 2}], [0, 0])
    assert td != decomposition([{1, 2}, {0, 1}], [0, 0])
    assert hash(td) == hash(decomposition([{0, 1}, {1, 2}], [0, 0]))
    assert len({g, Graph.from_edges(3, [(0, 1), (1, 2)]), td}) == 2
    for record, name in ((g, "n"), (g, "edges"), (td, "parent"), (td, "extra")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
