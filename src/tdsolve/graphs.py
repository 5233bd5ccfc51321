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
    The constructor does not enforce this: the validator module checks
    it.
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
