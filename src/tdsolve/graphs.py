"""Core data types: simple undirected graphs and rooted tree decompositions."""

from __future__ import annotations

from collections import deque, namedtuple
from collections.abc import Iterable


class Graph(namedtuple("Graph", ("n", "edges", "adjacency"))):
    """Simple undirected graph on vertices 0..n-1.

    Edges are normalized: stored once as (u, v) with u < v, sorted
    ascending, no self-loops, no duplicates. ``adjacency[v]`` is the
    neighbor set of v. Build instances with :meth:`from_edges`.
    An immutable record: equal and hashed by its fields.
    """

    __slots__ = ()
    n: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[frozenset[int], ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a normalized graph; raises ValueError on bad endpoints."""
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        normalized = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            normalized.add((u, v) if u < v else (v, u))
        adj = [set() for _ in range(n)]
        for u, v in normalized:
            adj[u].add(v)
            adj[v].add(u)
        return cls(
            n=n,
            edges=tuple(sorted(normalized)),
            adjacency=tuple(frozenset(s) for s in adj),
        )


class TreeDecomposition(namedtuple("TreeDecomposition", ("nodes", "parent"))):
    """Rooted tree of vertex sets, in parent-pointer form.

    Node 0 is the root, ``parent[0] == 0``, and for a well-formed
    decomposition every other node's parent pointer leads to the root.
    The constructor does not enforce this (the validator module checks
    it); use :meth:`from_parents` to build a shape-checked instance.
    """

    __slots__ = ()
    nodes: tuple[frozenset[int], ...]
    parent: tuple[int, ...]

    @property
    def m(self) -> int:
        """Number of nodes."""
        return len(self.nodes)

    @property
    def width(self) -> int:
        """Cardinality of the largest node."""
        return max(len(b) for b in self.nodes)

    @classmethod
    def from_parents(
        cls, nodes: Iterable[Iterable[int]], parent: Iterable[int]
    ) -> "TreeDecomposition":
        """Build from node contents and parent pointers.

        Raises ValueError if the parent array is not a tree rooted at
        node 0.
        """
        node_sets = tuple(frozenset(b) for b in nodes)
        parents = tuple(parent)
        m = len(node_sets)
        if m == 0:
            raise ValueError("a decomposition needs at least one node")
        if len(parents) != m:
            raise ValueError(f"{m} nodes but {len(parents)} parent pointers")
        if parents[0] != 0:
            raise ValueError("node 0 must be the root (parent[0] == 0)")
        # Walk i marks its nodes i and stops at the root or a marked node,
        # which reaches the root if an earlier walk marked it, else cycles.
        walked = [0] * m
        for i in range(1, m):
            j = i
            while j and not walked[j]:
                walked[j] = i
                p = parents[j]
                if not (0 <= p < m) or p == j:
                    raise ValueError(f"node {j} has invalid parent {p}")
                j = p
            if walked[j] == i:
                raise ValueError(f"parent pointers cycle at node {i}")
        return cls(nodes=node_sets, parent=parents)


def oriented_at_zero(
    nodes: Iterable[Iterable[int]],
    tree_edges: Iterable[tuple[int, int]],
) -> TreeDecomposition:
    """Orient an undirected node tree into parent-pointer form, keeping
    node indices and rooting at node 0.

    Raises ValueError if the edges do not form a tree spanning all
    nodes.
    """
    node_sets = [frozenset(b) for b in nodes]
    m = len(node_sets)
    if m == 0:
        raise ValueError("a decomposition needs at least one node")
    adj = [[] for _ in range(m)]
    count = 0
    for a, b in tree_edges:
        if not (0 <= a < m and 0 <= b < m) or a == b:
            raise ValueError(f"bad tree edge ({a}, {b})")
        adj[a].append(b)
        adj[b].append(a)
        count += 1
    if count != m - 1:
        raise ValueError(f"{m} nodes need {m - 1} tree edges, got {count}")

    parent = [0] * m
    seen = {0}
    queue = deque([0])
    while queue:
        a = queue.popleft()
        for b in adj[a]:
            if b not in seen:
                seen.add(b)
                parent[b] = a
                queue.append(b)
    if len(seen) != m:
        raise ValueError("tree edges do not connect all nodes")
    return TreeDecomposition(tuple(node_sets), tuple(parent))
