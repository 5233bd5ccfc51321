"""Standalone checkers: the four tree-decomposition properties of a
witness, and the minor certificate of a treewidth lower bound.

Shares no logic with the constraint engine or the bound that builds the
certificate: every check here is a direct traversal of the claimed
object, so it can serve as an independent auditor.

A decomposition is read as one vertex mask per node. A vertex is a
*top* of a node that holds it when the node's parent lacks it; every
vertex of the root is a top of the root. If the parent pointers form a
tree rooted at node 0, the nodes holding a vertex form one connected
subtree iff the vertex is a top of exactly one node (each connected
piece has one topmost node), and it is covered iff it is a top of at
least one. So one pass over the nodes checks coverage and the running
intersection property. A breadth-first search over the tree edges is
left for naming the nodes cut off from a vertex's first node, and for
parent pointers that are not such a tree.
"""

from __future__ import annotations

from collections import deque, namedtuple
from collections.abc import Iterable
from enum import Enum

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


class Violation(namedtuple("Violation", ("kind", "detail"))):
    """One failed check, as an immutable record."""

    __slots__ = ()
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
    parent = td.parent
    if len(parent) != m:
        raise ValueError(f"length mismatch: {m} nodes, {len(parent)} parents")

    out: list[Violation] = []

    # Tree shape: parent pointers.
    parents_in_range = True
    if parent[0] != 0:
        out.append(Violation(ViolationKind.TREE_SHAPE, f"parent[0] is {parent[0]}, expected 0"))
    for i in range(1, m):
        p = parent[i]
        if not (0 <= p < m):
            out.append(Violation(ViolationKind.TREE_SHAPE, f"parent[{i}] = {p} out of range"))
            parents_in_range = False
            continue
        if p == i:
            out.append(Violation(ViolationKind.TREE_SHAPE, f"node {i} is its own parent"))
    is_tree = parents_in_range
    if parents_in_range:
        # A walk marks its nodes False and stops at the first marked
        # node, so each node is walked once; stopping on its own mark
        # means a cycle.
        reaches: list[bool | None] = [None] * m
        reaches[0] = True
        for i in range(1, m):
            walk = []
            j = i
            while reaches[j] is None:
                reaches[j] = False
                walk.append(j)
                j = parent[j]
            for k in walk:
                reaches[k] = reaches[j]
            if not reaches[i]:
                is_tree = False
                if parent[i] != i:  # a self-parent is already reported
                    out.append(
                        Violation(ViolationKind.TREE_SHAPE, f"node {i} does not reach the root")
                    )

    if expect_path:
        children = [0] * m
        for i in range(1, m):
            if 0 <= parent[i] < m and parent[i] != i:
                children[parent[i]] += 1
        for i, count in enumerate(children):
            if count > 1:
                out.append(Violation(ViolationKind.PATH_SHAPE, f"node {i} has {count} children"))

    # Property 1: every node is a subset of V.
    n = g.n
    masks = []
    for i, bag in enumerate(td.nodes):
        mask = 0
        for v in bag:
            if 0 <= v < n:
                mask |= 1 << v
        if mask.bit_count() != len(bag):
            stray = sorted(v for v in bag if not (0 <= v < n))
            if stray:
                out.append(
                    Violation(ViolationKind.COVERAGE, f"node {i} contains non-vertices {stray}")
                )
        masks.append(mask)

    # The tops: ``covered`` has the vertices with one or more, ``cut``
    # those with two or more. Off a tree, every covered vertex is searched.
    if is_tree:
        covered, cut = masks[0], 0
        for i in range(1, m):
            top = masks[i] & ~masks[parent[i]]
            cut |= covered & top
            covered |= top
    else:
        covered = 0
        for mask in masks:
            covered |= mask
        cut = covered

    # Property 2: the union of the nodes is V.
    if covered != (1 << n) - 1:
        for v in range(n):
            if not covered >> v & 1:
                out.append(Violation(ViolationKind.COVERAGE, f"vertex {v} appears in no node"))

    # Property 3: every edge lies inside some node. ``beside[u]`` holds
    # the vertices that share a node with u.
    beside = [0] * n
    for bag, mask in zip(td.nodes, masks):
        for v in bag:
            if 0 <= v < n:
                beside[v] |= mask
    for u, v in g.edges:
        if not beside[u] >> v & 1:
            out.append(Violation(ViolationKind.EDGE, f"edge ({u}, {v}) is inside no node"))

    # Property 4: the nodes containing any vertex induce a connected
    # subtree. A search from a cut vertex's first node names the others.
    if cut:
        tree_adj = [[] for _ in range(m)]
        for i in range(1, m):
            p = parent[i]
            if 0 <= p < m and p != i:
                tree_adj[i].append(p)
                tree_adj[p].append(i)
        for v in range(n):
            if not cut >> v & 1:
                continue
            holders = [i for i in range(m) if masks[i] >> v & 1]
            reached = {holders[0]}
            queue = deque(reached)
            while queue:
                i = queue.popleft()
                for j in tree_adj[i]:
                    if masks[j] >> v & 1 and j not in reached:
                        reached.add(j)
                        queue.append(j)
            missing = sorted(set(holders) - reached)
            if missing:
                out.append(
                    Violation(
                        ViolationKind.CONNECTEDNESS,
                        f"vertex {v}: nodes {holders} do not form a connected subtree"
                        f" (nodes {missing} are cut off)",
                    )
                )

    if expect_w is not None:
        widest = max(map(len, td.nodes))
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
