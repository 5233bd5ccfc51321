"""Brute-force oracle behavior."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import (
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
    with pytest.raises(ValueError):
        brute_treewidth(edgeless_graph(10))
    with pytest.raises(ValueError):
        brute_pathwidth(edgeless_graph(9))
    assert brute_treewidth(edgeless_graph(10), limit=10).width == 1


def test_package_import_leaves_the_oracle_out():
    # No schedule uses the oracle, so `import tdsolve` must not load it.
    src = Path(tdsolve.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = "import sys, tdsolve; print('tdsolve.oracle' in sys.modules)"
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout == "False\n"
