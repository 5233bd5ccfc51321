"""Brute-force ground truth for decomposition widths on small graphs.

Treewidth: minimum, over all vertex elimination orders, of the largest
elimination bag (eliminated vertex plus its remaining neighbors, with
fill-in). Pathwidth: minimum, over all vertex orderings, of the largest
boundary (placed vertices that still have an unplaced neighbor) plus
one. Both search all orders depth-first, pruning a branch as soon as
its running maximum is no better than the best complete order found.

Nothing here touches the constraint engine, so these values can certify
solver answers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .graphs import Graph, TreeDecomposition

DEFAULT_TREEWIDTH_LIMIT = 9
DEFAULT_PATHWIDTH_LIMIT = 8


@dataclass(frozen=True)
class OracleResult:
    width: int  # minimum node cardinality; the conventional number is width - 1
    order: tuple[int, ...]
    decomposition: TreeDecomposition | None


def _check_order(n: int, order: Sequence[int]) -> None:
    if sorted(order) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {tuple(order)}")


def elimination_width(g: Graph, order: Sequence[int]) -> int:
    """Largest bag produced by eliminating vertices in the given order.

    Eliminating a vertex connects its remaining neighbors pairwise and
    costs 1 + (number of remaining neighbors).
    """
    _check_order(g.n, order)
    adj = [set(s) for s in g.adjacency]
    width = 0
    for v in order:
        neighbors = sorted(adj[v])
        width = max(width, 1 + len(neighbors))
        for a, b in combinations(neighbors, 2):
            adj[a].add(b)
            adj[b].add(a)
        for u in neighbors:
            adj[u].remove(v)
        adj[v].clear()
    return width


def decomposition_from_order(g: Graph, order: Sequence[int]) -> TreeDecomposition:
    """Decomposition induced by an elimination order; its width is
    elimination_width.

    Bags are indexed in reverse elimination order: node 0, the root, is
    the last-eliminated vertex's bag, and every parent index is smaller
    than its child's.
    """
    _check_order(g.n, order)
    position = {v: t for t, v in enumerate(order)}
    adj = [set(s) for s in g.adjacency]
    bags = []
    for v in order:
        neighbors = sorted(adj[v])
        bags.append(frozenset([v] + neighbors))
        for a, b in combinations(neighbors, 2):
            adj[a].add(b)
            adj[b].add(a)
        for u in neighbors:
            adj[u].remove(v)
        adj[v].clear()
    last = g.n - 1
    parent = [0] * g.n
    for t in range(last):
        later = [position[u] for u in bags[t] if position[u] > t]
        parent[last - t] = last - (min(later) if later else t + 1)
    return TreeDecomposition.from_parents(bags[::-1], parent)


def brute_treewidth(g: Graph, limit: int = DEFAULT_TREEWIDTH_LIMIT) -> OracleResult:
    """Minimum width over all elimination orders, with a witness."""
    if g.n > limit:
        raise ValueError(f"graph has {g.n} vertices, oracle limit is {limit}")
    if g.n == 0:
        return OracleResult(width=0, order=(), decomposition=None)

    adj = [set(s) for s in g.adjacency]
    remaining = set(range(g.n))
    order: list[int] = []
    best_width = g.n + 1
    best_order: tuple[int, ...] = ()

    def search(running_max: int) -> None:
        nonlocal best_width, best_order
        if running_max >= best_width:
            return
        if not remaining:
            best_width = running_max
            best_order = tuple(order)
            return
        for v in sorted(remaining):
            neighbors = sorted(adj[v])
            cost = 1 + len(neighbors)
            if max(running_max, cost) >= best_width:
                continue
            added = []
            for a, b in combinations(neighbors, 2):
                if b not in adj[a]:
                    adj[a].add(b)
                    adj[b].add(a)
                    added.append((a, b))
            for u in neighbors:
                adj[u].remove(v)
            remaining.remove(v)
            order.append(v)
            search(max(running_max, cost))
            order.pop()
            remaining.add(v)
            for u in neighbors:
                adj[u].add(v)
            for a, b in added:
                adj[a].remove(b)
                adj[b].remove(a)

    search(0)
    return OracleResult(
        width=best_width,
        order=best_order,
        decomposition=decomposition_from_order(g, best_order),
    )


def brute_pathwidth(g: Graph, limit: int = DEFAULT_PATHWIDTH_LIMIT) -> OracleResult:
    """Minimum path-decomposition width via vertex orderings."""
    if g.n > limit:
        raise ValueError(f"graph has {g.n} vertices, oracle limit is {limit}")
    if g.n == 0:
        return OracleResult(width=0, order=(), decomposition=None)

    placed: set[int] = set()
    order: list[int] = []
    best_width = g.n + 1
    best_order: tuple[int, ...] = ()

    def search(running_max: int) -> None:
        nonlocal best_width, best_order
        if running_max + 1 >= best_width:
            return
        if len(order) == g.n:
            best_width = running_max + 1
            best_order = tuple(order)
            return
        for v in range(g.n):
            if v in placed:
                continue
            placed.add(v)
            order.append(v)
            boundary = sum(1 for u in placed if g.adjacency[u] - placed)
            search(max(running_max, boundary))
            order.pop()
            placed.remove(v)

    search(0)
    return OracleResult(width=best_width, order=best_order, decomposition=None)
