"""Decomposition validator checks and mutation sensitivity."""

from __future__ import annotations

import itertools
import random
import time
from collections import Counter, deque

import pytest

from helpers import complete_graph, path_graph
from tdsolve.graphio import MAX_VERTICES
from tdsolve.graphs import Graph, TreeDecomposition
from tdsolve.validator import Violation, ViolationKind, validate


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


def test_violation_is_an_immutable_value():
    violation = Violation(kind=ViolationKind.EDGE, detail="edge (0, 1) is inside no node")
    assert repr(violation) == (
        "Violation(kind=<ViolationKind.EDGE: 'EDGE'>, detail='edge (0, 1) is inside no node')"
    )
    assert str(violation) == "EDGE: edge (0, 1) is inside no node"
    assert validate(path_graph(2), TreeDecomposition.from_parents([{0}, {1}], [0, 0])) == [violation]
    assert violation != Violation(ViolationKind.COVERAGE, violation.detail)
    assert hash(violation) == hash(Violation(ViolationKind.EDGE, violation.detail))
    for name in ("kind", "detail", "extra"):
        with pytest.raises(AttributeError):
            setattr(violation, name, None)


def test_validate_is_deterministic():
    g = complete_graph(4)
    td = TreeDecomposition.from_parents([{0, 1}, {1, 2}], [0, 0])
    first = validate(g, td)
    assert first == validate(g, td)
    assert [v.kind for v in first] == sorted(
        (v.kind for v in first), key=[k for k in ViolationKind].index
    )


def test_a_vertex_with_two_tops_is_cut_off():
    # vertex 0 is in the root and in node 2, whose parent lacks it
    g = Graph.from_edges(2, [])
    td = TreeDecomposition.from_parents([{0}, {1}, {0}], [0, 0, 1])
    assert [str(v) for v in validate(g, td)] == [
        "CONNECTEDNESS: vertex 0: nodes [0, 2] do not form a connected subtree"
        " (nodes [2] are cut off)"
    ]
    # two siblings hold vertex 0, their common parent does not
    td = TreeDecomposition.from_parents([{1}, {0}, {0, 1}, {0}], [0, 0, 0, 2])
    assert [str(v) for v in validate(g, td)] == [
        "CONNECTEDNESS: vertex 0: nodes [1, 2, 3] do not form a connected subtree"
        " (nodes [2, 3] are cut off)"
    ]


def test_largest_path_decomposition_validates_in_linear_time():
    # A chain of 9,999 nodes as deep as it is long: walking every node
    # to the root, or scanning the nodes for every edge, took seconds.
    n = MAX_VERTICES
    g = path_graph(n)
    td = TreeDecomposition(
        nodes=tuple(frozenset((v, v + 1)) for v in range(n - 1)),
        parent=tuple(max(i - 1, 0) for i in range(n - 1)),
    )
    start = time.perf_counter()
    assert validate(g, td, expect_m=n - 1, expect_w=2, expect_path=True) == []
    assert time.perf_counter() - start < 0.5


def test_long_chain_builds_from_parents_in_linear_time():
    # Walking every node of a 4,000-node chain to the root took 0.7 s.
    m = 4000
    start = time.perf_counter()
    td = TreeDecomposition.from_parents([{i} for i in range(m)], [max(i - 1, 0) for i in range(m)])
    assert time.perf_counter() - start < 0.1
    assert td.parent[-1] == m - 2


def test_negative_vertex_is_coverage_not_an_error():
    g = path_graph(2)
    td = TreeDecomposition(nodes=(frozenset({-1, 0, 1}), frozenset({-3})), parent=(0, 0))
    assert [str(v) for v in validate(g, td, expect_w=3)] == [
        "COVERAGE: node 0 contains non-vertices [-1]",
        "COVERAGE: node 1 contains non-vertices [-3]",
    ]


def _reference_validate(g, td, expect_m=None, expect_w=None, expect_path=False):
    """The validator before it read bag masks: connectedness by one
    breadth-first search per vertex over the tree edges. The reference
    for ``validate``."""
    m = len(td.nodes)
    out = []
    parents_in_range = True
    if td.parent[0] != 0:
        out.append(Violation(ViolationKind.TREE_SHAPE, f"parent[0] is {td.parent[0]}, expected 0"))
    for i in range(1, m):
        p = td.parent[i]
        if not (0 <= p < m):
            out.append(Violation(ViolationKind.TREE_SHAPE, f"parent[{i}] = {p} out of range"))
            parents_in_range = False
            continue
        if p == i:
            out.append(Violation(ViolationKind.TREE_SHAPE, f"node {i} is its own parent"))
    if parents_in_range:
        for i in range(1, m):
            if td.parent[i] == i:
                continue
            j = i
            hops = 0
            while j != 0 and hops <= m:
                j = td.parent[j]
                hops += 1
            if j != 0:
                out.append(
                    Violation(ViolationKind.TREE_SHAPE, f"node {i} does not reach the root")
                )
    if expect_path:
        children = [0] * m
        for i in range(1, m):
            if 0 <= td.parent[i] < m and td.parent[i] != i:
                children[td.parent[i]] += 1
        for i, count in enumerate(children):
            if count > 1:
                out.append(Violation(ViolationKind.PATH_SHAPE, f"node {i} has {count} children"))
    for i, bag in enumerate(td.nodes):
        stray = sorted(v for v in bag if not (0 <= v < g.n))
        if stray:
            out.append(
                Violation(ViolationKind.COVERAGE, f"node {i} contains non-vertices {stray}")
            )
    covered = frozenset().union(*td.nodes)
    for v in range(g.n):
        if v not in covered:
            out.append(Violation(ViolationKind.COVERAGE, f"vertex {v} appears in no node"))
    for u, v in g.edges:
        if not any(u in bag and v in bag for bag in td.nodes):
            out.append(Violation(ViolationKind.EDGE, f"edge ({u}, {v}) is inside no node"))
    tree_adj = [[] for _ in range(m)]
    for i in range(1, m):
        p = td.parent[i]
        if 0 <= p < m and p != i:
            tree_adj[i].append(p)
            tree_adj[p].append(i)
    for v in range(g.n):
        holders = [i for i in range(m) if v in td.nodes[i]]
        if len(holders) <= 1:
            continue
        member = set(holders)
        reached = {holders[0]}
        queue = deque([holders[0]])
        while queue:
            i = queue.popleft()
            for j in tree_adj[i]:
                if j in member and j not in reached:
                    reached.add(j)
                    queue.append(j)
        missing = sorted(set(holders) - reached)
        if missing:
            out.append(
                Violation(
                    ViolationKind.CONNECTEDNESS,
                    f"vertex {v}: nodes {sorted(holders)} do not form a connected subtree"
                    f" (nodes {missing} are cut off)",
                )
            )
    if expect_w is not None:
        widest = max(len(bag) for bag in td.nodes)
        if widest > expect_w:
            out.append(
                Violation(ViolationKind.WIDTH, f"largest node has {widest} vertices, bound {expect_w}")
            )
    if expect_m is not None and m != expect_m:
        out.append(Violation(ViolationKind.NODE_COUNT, f"{m} nodes, expected {expect_m}"))
    return out


def _random_decomposition(rng):
    """A graph and a decomposition of it, valid before the mutations:
    a random tree over shuffled node indices, each vertex on a random
    connected set of its nodes, and the graph's edges drawn from the
    pairs that share a node. Then, each with some chance: a vertex
    dropped from or added to a node, a stray vertex (-1 or n), and a
    broken parent array (a non-zero parent[0], a self-parent, an
    out-of-range parent, or a parent that may close a cycle)."""
    n = rng.randint(1, 6)
    m = rng.randint(1, 7)
    order = [0] + rng.sample(range(1, m), m - 1)
    parent = [0] * m
    adjacent = [[] for _ in range(m)]
    for k in range(1, m):
        p = order[rng.randrange(k)]
        parent[order[k]] = p
        adjacent[p].append(order[k])
        adjacent[order[k]].append(p)
    bags = [set() for _ in range(m)]
    for v in range(n):
        held = {rng.randrange(m)}
        for _ in range(rng.randint(0, m)):
            held.add(rng.choice(adjacent[rng.choice(sorted(held))] or [0]))
        for i in held:
            bags[i].add(v)
    pairs = sorted({pair for bag in bags for pair in itertools.combinations(sorted(bag), 2)})
    edges = [pair for pair in pairs if rng.random() < 0.7]
    if n > 1 and rng.random() < 0.1:
        edges.append(tuple(rng.sample(range(n), 2)))
    if rng.random() < 0.3:
        rng.choice(bags).discard(rng.randrange(n))
    if rng.random() < 0.3:
        rng.choice(bags).add(rng.randrange(n))
    if rng.random() < 0.1:
        rng.choice(bags).add(rng.choice([-1, n]))
    if rng.random() < 0.1:
        parent[0] = rng.randint(1, m)
    if m > 1 and rng.random() < 0.2:
        i = rng.randrange(1, m)
        parent[i] = rng.choice([i, -1, m, rng.randrange(m)])
    return Graph.from_edges(n, edges), TreeDecomposition(tuple(map(frozenset, bags)), tuple(parent))


def test_validate_agrees_with_one_search_per_vertex():
    rng = random.Random(14)
    seen = Counter()
    for _ in range(20_000):
        g, td = _random_decomposition(rng)
        expect = (
            rng.choice((None, td.m, td.m + 1)),
            rng.choice((None, td.width, td.width - 1)),
            rng.random() < 0.5,
        )
        found = validate(g, td, *expect)
        assert found == _reference_validate(g, td, *expect), (g, td, expect)
        seen.update({v.kind.value for v in found} or {"valid"})
    # valid decompositions and every kind of decomposition violation,
    # each many times over
    kinds = {kind.value for kind in ViolationKind} - {"BRANCH_SET", "MINOR_DEGREE"}
    assert set(seen) == kinds | {"valid"}
    assert min(seen.values()) > 500, seen
