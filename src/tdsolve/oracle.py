"""Exact ground truth for decomposition widths on small graphs.

One dynamic program over vertex sets gives both widths. An order costs
the largest cost of one of its steps, and the cheapest order of a set S
puts some v last after the cheapest order of S - v:

    best[S] = min over v in S of max(best[S - v], cost(S - v, v))

with best[{}] = 0. The minimising v, walked back from the full set,
give an optimal order.

Treewidth (Bodlaender, Fomin, Koster, Kratsch & Thilikos, "On exact
algorithms for treewidth", ACM TALG 2012): the order eliminates S - v,
then v. cost(S, v) = 1 + |Q(S, v)| is the bag v gets once S is gone:
Q(S, v) holds the vertices outside S and v that v reaches by paths
whose inner vertices lie in S.

Pathwidth, as vertex separation (Kinnersley, "The vertex separation
number of a graph equals its path-width", IPL 1992): the order places
the vertices on a line. cost(S, v) = 1 + |∂S| is the bag that
introduces v, ∂S plus v, where ∂S holds the vertices of S with a
neighbour outside S. The largest is the vertex separation number + 1.

Widths count vertices per bag (the conventional number is width - 1).
The tables have 2^n entries, so a graph above MAX_VERTICES vertices is
refused before they are allocated. Nothing here touches the constraint
engine, so these values can certify solver answers.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator, Sequence
from itertools import combinations

from .graphs import Graph, TreeDecomposition

# Largest n whose 2^n tables the oracle builds: either oracle takes under
# 1 s at 16 vertices, and each further vertex doubles the time.
MAX_VERTICES = 16


class OracleResult(namedtuple("OracleResult", ("width", "order", "decomposition"))):
    __slots__ = ()
    width: int  # minimum node cardinality; the conventional number is width - 1
    order: tuple[int, ...]
    decomposition: TreeDecomposition | None


def _elimination_bags(g: Graph, order: Sequence[int]) -> list[frozenset[int]]:
    # Eliminating a vertex makes its bag of itself and its remaining
    # neighbors, then connects those neighbors pairwise.
    if sorted(order) != list(range(g.n)):
        raise ValueError(f"not a permutation of 0..{g.n - 1}: {tuple(order)}")
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
    return bags


def elimination_width(g: Graph, order: Sequence[int]) -> int:
    """Largest bag produced by eliminating vertices in the given order."""
    return max(map(len, _elimination_bags(g, order)), default=0)


def decomposition_from_order(g: Graph, order: Sequence[int]) -> TreeDecomposition:
    """Decomposition induced by an elimination order; its width is
    elimination_width.

    Bags are indexed in reverse elimination order: node 0, the root, is
    the last-eliminated vertex's bag, and every parent index is smaller
    than its child's.
    """
    bags = _elimination_bags(g, order)
    position = {v: t for t, v in enumerate(order)}
    last = g.n - 1
    parent = [0] * g.n
    for t in range(last):
        later = [position[u] for u in bags[t] if position[u] > t]
        parent[last - t] = last - (min(later) if later else t + 1)
    return TreeDecomposition(tuple(bags[::-1]), tuple(parent))


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _subset_dp(g: Graph, step_costs) -> tuple[int, tuple[int, ...]]:
    """best[V] and an order that attains it. ``step_costs(adj, s)``
    yields (v, cost(s, v)) for every v outside s, on adjacency masks.
    Sets are visited in increasing value, so a set's entry is final
    before it is pushed on to the sets one vertex larger."""
    if g.n > MAX_VERTICES:
        raise ValueError(f"graph has {g.n} vertices, oracle limit is {MAX_VERTICES}")
    adj = [sum(1 << u for u in g.adjacency[v]) for v in range(g.n)]
    full = (1 << g.n) - 1
    best = [0] + [g.n + 1] * full
    last = bytearray(full + 1)  # the vertex an optimal order of the set puts last
    for s in range(full):
        before = best[s]
        for v, cost in step_costs(adj, s):
            t = s | 1 << v
            if cost < before:
                cost = before
            if cost < best[t]:
                best[t] = cost
                last[t] = v
    order = []
    while full:
        order.insert(0, last[full])
        full ^= 1 << last[full]
    return best[-1], tuple(order)


def _elimination_costs(adj: list[int], s: int) -> Iterator[tuple[int, int]]:
    # Label each vertex of s with its component of G[s] and that
    # component's neighbours outside s. Q(s, v) is then v's neighbours
    # outside s together with those of every component v touches.
    owner = {}
    rest = s
    while rest:
        comp = frontier = rest & -rest
        reach = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            reach |= adj[low.bit_length() - 1]
            grown = reach & s & ~comp
            comp |= grown
            frontier |= grown
        rest &= ~comp
        for u in _bits(comp):
            owner[u] = (comp, reach & ~s)
    for v in _bits((1 << len(adj)) - 1 & ~s):
        q = adj[v] & ~s
        touched = adj[v] & s
        while touched:
            comp, outside = owner[(touched & -touched).bit_length() - 1]
            q |= outside
            touched &= ~comp
        yield v, 1 + (q & ~(1 << v)).bit_count()


def _separation_costs(adj: list[int], s: int) -> Iterator[tuple[int, int]]:
    cost = 1 + sum(1 for u in _bits(s) if adj[u] & ~s)
    for v in _bits((1 << len(adj)) - 1 & ~s):
        yield v, cost


def brute_treewidth(g: Graph) -> OracleResult:
    """Minimum width over all elimination orders, exhaustive over vertex
    subsets, with an optimal order and its decomposition."""
    width, order = _subset_dp(g, _elimination_costs)
    return OracleResult(width, order, decomposition_from_order(g, order) if order else None)


def brute_pathwidth(g: Graph) -> OracleResult:
    """Minimum path-decomposition width (vertex separation number + 1),
    exhaustive over vertex subsets, with an optimal vertex order."""
    width, order = _subset_dp(g, _separation_costs)
    return OracleResult(width, order, None)
