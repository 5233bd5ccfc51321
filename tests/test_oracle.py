"""Exact oracle behavior: both subset DPs against a permutation
enumerator written here."""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from helpers import (
    all_labeled_graphs,
    complete_graph,
    cycle_graph,
    edgeless_graph,
    path_graph,
    random_graph,
    star_graph,
)
import tdsolve
from tdsolve.graphs import Graph
from tdsolve.oracle import (
    MAX_VERTICES,
    brute_pathwidth,
    brute_treewidth,
    decomposition_from_order,
    elimination_width,
)
from tdsolve.validator import validate


def test_elimination_width_examples():
    assert elimination_width(complete_graph(3), [0, 1, 2]) == 3
    assert elimination_width(complete_graph(3), [2, 0, 1]) == 3
    assert elimination_width(path_graph(3), [0, 2, 1]) == 2
    assert elimination_width(path_graph(3), [1, 0, 2]) == 3  # center first fills in
    assert elimination_width(edgeless_graph(4), [3, 1, 0, 2]) == 1


def test_elimination_rejects_non_permutations():
    g = path_graph(3)
    with pytest.raises(ValueError):
        elimination_width(g, [0, 1])
    with pytest.raises(ValueError):
        elimination_width(g, [0, 1, 1])
    with pytest.raises(ValueError):
        elimination_width(g, [0, 1, 3])


def test_brute_treewidth_known_values():
    assert brute_treewidth(cycle_graph(4)).width == 3
    assert brute_treewidth(complete_graph(5)).width == 5
    assert brute_treewidth(star_graph(3)).width == 2
    assert brute_treewidth(path_graph(6)).width == 2
    assert brute_treewidth(edgeless_graph(4)).width == 1
    assert brute_treewidth(Graph.from_edges(1, [])).width == 1


def test_brute_treewidth_certificate_is_consistent():
    for g in (cycle_graph(5), star_graph(4), complete_graph(4)):
        result = brute_treewidth(g)
        assert elimination_width(g, result.order) == result.width
        assert validate(g, result.decomposition) == []
        assert result.decomposition.width == result.width


def test_decomposition_from_order_validates():
    rng = random.Random(3)
    for _ in range(20):
        g = random_graph(rng.randint(1, 7), 0.4, rng)
        order = list(range(g.n))
        rng.shuffle(order)
        td = decomposition_from_order(g, order)
        assert validate(g, td) == []
        assert td.width == elimination_width(g, order)


def test_brute_pathwidth_known_values():
    assert brute_pathwidth(path_graph(4)).width == 2
    assert brute_pathwidth(cycle_graph(4)).width == 3
    assert brute_pathwidth(complete_graph(3)).width == 3
    assert brute_pathwidth(edgeless_graph(3)).width == 1
    assert brute_pathwidth(star_graph(3)).width == 2
    # caterpillars are the width-2 trees; the smallest non-caterpillar
    # (three legs of length two) needs width 3
    caterpillar = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (1, 4), (2, 5)])
    assert brute_pathwidth(caterpillar).width == 2
    spider = Graph.from_edges(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
    assert brute_pathwidth(spider).width == 3


def test_pathwidth_at_least_treewidth():
    rng = random.Random(17)
    for _ in range(30):
        g = random_graph(rng.randint(1, 6), 0.5, rng)
        assert brute_pathwidth(g).width >= brute_treewidth(g).width


def test_relabeling_invariance():
    rng = random.Random(23)
    for _ in range(15):
        g = random_graph(6, 0.5, rng)
        relabel = list(range(g.n))
        rng.shuffle(relabel)
        h = Graph.from_edges(g.n, [(relabel[u], relabel[v]) for u, v in g.edges])
        assert brute_treewidth(g).width == brute_treewidth(h).width
        assert brute_pathwidth(g).width == brute_pathwidth(h).width


def test_size_limits_enforced():
    # Refused before any 2^n table exists: one table at MAX_VERTICES + 1
    # would take over a megabyte.
    g = edgeless_graph(MAX_VERTICES + 1)
    for brute in (brute_treewidth, brute_pathwidth):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"oracle limit is {MAX_VERTICES}"):
                brute(g)
            assert tracemalloc.get_traced_memory()[1] < 100_000
        finally:
            tracemalloc.stop()
    assert brute_pathwidth(path_graph(MAX_VERTICES)).width == 2


def test_empty_graph_has_width_zero_and_no_witness():
    for brute in (brute_treewidth, brute_pathwidth):
        result = brute(Graph.from_edges(0, []))
        assert (result.width, result.order, result.decomposition) == (0, (), None)


def _masks(g):
    return [sum(1 << u for u in g.adjacency[v]) for v in range(g.n)]


def _elimination_cost(adj, order):
    adj = list(adj)
    width = 0
    for v in order:
        nb = adj[v]
        width = max(width, 1 + bin(nb).count("1"))
        for u in order:
            if nb >> u & 1:
                adj[u] = (adj[u] | nb) & ~(1 << u | 1 << v)
    return width


def _separation_cost(adj, order):
    placed = width = 0
    for i, v in enumerate(order):
        placed |= 1 << v
        width = max(width, 1 + sum(1 for u in order[: i + 1] if adj[u] & ~placed))
    return width


def _naive_widths(g):
    """Minimum elimination width and minimum largest boundary + 1 over
    every permutation of the vertices."""
    if g.n == 0:
        return 0, 0
    adj = _masks(g)
    orders = list(itertools.permutations(range(g.n)))
    return (
        min(_elimination_cost(adj, order) for order in orders),
        min(_separation_cost(adj, order) for order in orders),
    )


def _check_against_naive(g):
    tw, pw = brute_treewidth(g), brute_pathwidth(g)
    assert (tw.width, pw.width) == _naive_widths(g), g.edges
    adj = _masks(g)
    assert _elimination_cost(adj, tw.order) == tw.width
    assert _separation_cost(adj, pw.order) == pw.width
    if g.n:
        assert validate(g, tw.decomposition) == []
        assert tw.decomposition.width == tw.width


def test_subset_dp_equals_permutations_on_every_small_graph():
    count = 0
    for n in range(6):
        for g in all_labeled_graphs(n):
            _check_against_naive(g)
            count += 1
    assert count == 1 + 1 + 2 + 8 + 64 + 1024


def test_subset_dp_equals_permutations_on_sampled_n6():
    rng = random.Random(606)
    for i in range(105):
        _check_against_naive(random_graph(6, 0.2 + 0.1 * (i % 7), rng))


def test_package_import_leaves_the_oracle_out():
    # No schedule uses the oracle, so `import tdsolve` must not load it.
    src = Path(tdsolve.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = "import sys, tdsolve; print('tdsolve.oracle' in sys.modules)"
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout == "False\n"
