"""Standalone checkers: the four tree-decomposition properties of a
witness, and the minor certificate of a treewidth lower bound.

Shares no logic with the constraint engine or the bound that builds the
certificate: every check here is a direct traversal of the claimed
object, so it can serve as an independent auditor.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .graphs import Graph, TreeDecomposition


class ViolationKind(Enum):
    TREE_SHAPE = "TREE_SHAPE"
    PATH_SHAPE = "PATH_SHAPE"
    COVERAGE = "COVERAGE"
    EDGE = "EDGE"
    CONNECTEDNESS = "CONNECTEDNESS"
    WIDTH = "WIDTH"
    NODE_COUNT = "NODE_COUNT"
    BRANCH_SET = "BRANCH_SET"
    MINOR_DEGREE = "MINOR_DEGREE"


@dataclass(frozen=True)
class Violation:
    kind: ViolationKind
    detail: str

    def __str__(self) -> str:
        return f"{self.kind.value}: {self.detail}"


def validate(
    g: Graph,
    td: TreeDecomposition,
    expect_m: int | None = None,
    expect_w: int | None = None,
    expect_path: bool = False,
) -> list[Violation]:
    """Check a claimed decomposition of g; return all violations found.

    Checks, in order: tree shape (root at 0, parents in range, no
    self-parents beyond the root, every node reaches the root), vertex
    range, vertex coverage, edge coverage, and the running intersection
    property (for each vertex, the nodes containing it induce a
    connected subtree). With ``expect_path`` also checks that no node
    has two children, and with ``expect_w``/``expect_m`` the width bound
    and node count. An empty list means the decomposition is valid.

    Raises ValueError for structurally malformed input (mismatched
    array lengths or zero nodes); that is an ill-formed claim, not a
    property violation.
    """
    m = len(td.nodes)
    if m == 0:
        raise ValueError("decomposition has no nodes")
    if len(td.parent) != m:
        raise ValueError(f"length mismatch: {m} nodes, {len(td.parent)} parents")

    out: list[Violation] = []

    # Tree shape: parent pointers.
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
                continue  # already reported
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

    # Property 1: every node is a subset of V.
    for i, bag in enumerate(td.nodes):
        stray = sorted(v for v in bag if not (0 <= v < g.n))
        if stray:
            out.append(
                Violation(ViolationKind.COVERAGE, f"node {i} contains non-vertices {stray}")
            )

    # Property 2: the union of the nodes is V.
    covered = frozenset().union(*td.nodes) if td.nodes else frozenset()
    for v in range(g.n):
        if v not in covered:
            out.append(Violation(ViolationKind.COVERAGE, f"vertex {v} appears in no node"))

    # Property 3: every edge lies inside some node.
    for u, v in g.edges:
        if not any(u in bag and v in bag for bag in td.nodes):
            out.append(Violation(ViolationKind.EDGE, f"edge ({u}, {v}) is inside no node"))

    # Property 4: the nodes containing any vertex induce a connected subtree.
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


def check_minor_bound(g: Graph, branch_sets: Iterable[Iterable[int]], lb: int) -> list[Violation]:
    """Check a claimed certificate that g has treewidth at least lb;
    return all violations found.

    The certificate is a list of branch sets. Checks that they are
    non-empty, disjoint sets of vertices of g, that each induces a
    connected subgraph of g, and that each has a g-edge to at least lb
    of the other sets. Contracting every set and deleting the vertices
    outside them then leaves a minor of g with minimum degree at least
    lb. Treewidth does not grow under taking minors and is at least the
    minimum degree, so an empty list proves tw(g) >= lb.
    """
    out: list[Violation] = []
    sets = [frozenset(bs) for bs in branch_sets]
    if lb > 0 and not sets:
        out.append(Violation(ViolationKind.MINOR_DEGREE, f"no branch sets, bound {lb}"))

    owner: dict[int, int] = {}
    for i, bs in enumerate(sets):
        if not bs:
            out.append(Violation(ViolationKind.BRANCH_SET, f"branch set {i} is empty"))
        for v in sorted(bs):
            if not (0 <= v < g.n):
                out.append(
                    Violation(ViolationKind.BRANCH_SET, f"branch set {i} contains non-vertex {v}")
                )
            elif v in owner:
                out.append(
                    Violation(
                        ViolationKind.BRANCH_SET,
                        f"vertex {v} is in branch sets {owner[v]} and {i}",
                    )
                )
            else:
                owner[v] = i

    for i, bs in enumerate(sets):
        members = {v for v in bs if 0 <= v < g.n}
        if not members:
            continue
        first = min(members)
        reached = {first}
        queue = deque([first])
        while queue:
            v = queue.popleft()
            for u in g.adjacency[v]:
                if u in members and u not in reached:
                    reached.add(u)
                    queue.append(u)
        cut = sorted(members - reached)
        if cut:
            out.append(
                Violation(
                    ViolationKind.BRANCH_SET,
                    f"branch set {i} is not connected: vertices {cut} cannot reach {first}",
                )
            )

        touched = {owner[u] for v in members for u in g.adjacency[v] if u in owner} - {i}
        if len(touched) < lb:
            out.append(
                Violation(
                    ViolationKind.MINOR_DEGREE,
                    f"branch set {i} has edges to {len(touched)} other sets, bound {lb}",
                )
            )
    return out
