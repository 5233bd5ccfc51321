"""Propagators for the decomposition model.

Each class filters one constraint at subset-bound / domain level and
carries a ``satisfied`` method that evaluates the constraint directly on
a full assignment (used to audit witnesses without going through the
filtering code). One ``RunningIntersection`` covers every child node of
a tree and keeps each child one level below its parent: the depth
variables serve only its guard. On a path, whose parents and depths are
constants, one ``PathIntersection`` over the node sets in path order
does the same work in linear time.
Where an edge lies is a set variable per node over the edge indices:
one ``EdgeInNode`` per node bounds the node's size by the width and
ties its edge set to its vertex set with whole-mask rules, and one
``UnionEquals`` over the edge sets places every edge (subset bounds for
sets: Gervet, Constraints 1997).
With ``smooth`` (``exact`` for ``EdgeInNode``), they ask for a smooth
decomposition: nodes of exactly w vertices, each child with exactly one
vertex its parent lacks (Bodlaender, SIAM J. Comput. 1996).
"""

from __future__ import annotations

from .engine import Inconsistent, IntVar, Propagator, SetVar, bits_of


class UnionEquals(Propagator):
    """union(xs) == universe. Assumes every possible set is within it.

    Wakes only when a ``possible`` shrinks: a ``required`` that grows
    only covers more of the universe, which can enable no pruning.
    """

    __slots__ = ("xs", "universe")

    def __init__(self, xs: list[SetVar], universe: int):
        super().__init__(possible=xs)
        self.xs = list(xs)
        self.universe = universe

    def propagate(self) -> None:
        req_union = 0
        once = 0  # possible in at least one set
        twice = 0  # possible in at least two
        for x in self.xs:
            possible = x.possible
            twice |= once & possible
            once |= possible
            req_union |= x.required
        if self.universe & ~once:
            raise Inconsistent
        # uncovered elements with a single support must go to it
        single = self.universe & ~twice & ~req_union
        if single:
            for x in self.xs:
                if x.possible & single:
                    x.require_mask(x.possible & single)

    def satisfied(self, value_of) -> bool:
        acc = set()
        for x in self.xs:
            acc |= value_of(x)
        return acc == set(bits_of(self.universe))


def incidence(n: int, edges: list[tuple[int, int]]) -> tuple[list[int], list[int]]:
    """The masks ``EdgeInNode`` reads, for a graph on vertices 0..n-1:
    the endpoints of each edge, and the indices of the edges at each
    vertex."""
    ends = [1 << u | 1 << v for u, v in edges]
    incident = [0] * n
    for e, (u, v) in enumerate(edges):
        if u == v:
            raise ValueError("self-loops are not representable")
        incident[u] |= 1 << e
        incident[v] |= 1 << e
    return ends, incident


class EdgeInNode(Propagator):
    """The node holds at most w vertices, or with ``exact`` exactly w,
    and edge e is in its edge set <=> both endpoints of e are in its
    vertex set, for every edge e of the graph that ``incidence``
    describes (with no edges, the width rule alone). Reads and prunes
    whole masks: a node that requires w vertices holds no other, and
    with ``exact`` one that can hold only w requires them all; an edge
    with an endpoint the node cannot hold leaves the edge set, and one
    whose endpoints the node both requires joins it; an edge the edge
    set requires puts its endpoints into the node, and one it excludes
    keeps the other endpoint of a required one out."""

    __slots__ = ("node", "edge_set", "ends", "incident", "w", "exact")
    idempotent = True

    def __init__(
        self,
        node: SetVar,
        edge_set: SetVar,
        ends: list[int],
        incident: list[int],
        w: int,
        exact: bool = False,
    ):
        super().__init__([node, edge_set])
        self.node = node
        self.edge_set = edge_set
        self.ends = ends
        self.incident = incident
        self.w = w
        self.exact = exact

    def propagate(self) -> None:
        node, edge_set, w, exact = self.node, self.edge_set, self.w, self.exact
        incident = self.incident
        taken = edge_set.required
        if taken:
            # the endpoints of the required edges
            need = 0
            rest = node.universe & ~node.required
            while rest:
                low = rest & -rest
                rest ^= low
                if incident[low.bit_length() - 1] & taken:
                    need |= low
            node.require_mask(need)
        while True:
            inside = node.required
            count = inside.bit_count()
            if count > w:
                raise Inconsistent
            if count == w:
                node.restrict(inside)
            if exact:
                count = node.possible.bit_count()
                if count < w:
                    raise Inconsistent
                if count == w:
                    node.require_mask(node.possible)
                    inside = node.required
            within = 0  # edges with both endpoints required
            touched = 0  # edges with an endpoint required
            rest = inside
            while rest:
                low = rest & -rest
                rest ^= low
                at_v = incident[low.bit_length() - 1]
                within |= at_v & touched
                touched |= at_v
            # an excluded edge at a required vertex keeps its other end out
            cut = touched & ~edge_set.possible
            forbid = 0
            rest = node.possible & ~inside if cut else 0
            while rest:
                low = rest & -rest
                rest ^= low
                if incident[low.bit_length() - 1] & cut:
                    forbid |= low
            node.restrict(~forbid)
            # with ``exact``, a node cut down to w vertices requires them
            # all: once more for the edges among them
            if not (exact and forbid) or node.possible.bit_count() > w:
                break
        # an endpoint the node cannot hold keeps the edge out
        drop = 0
        rest = node.universe & ~node.possible
        while rest:
            low = rest & -rest
            rest ^= low
            drop |= incident[low.bit_length() - 1]
        edge_set.restrict(~drop)
        edge_set.require_mask(within)

    def satisfied(self, value_of) -> bool:
        members = value_of(self.node)
        if len(members) > self.w or self.exact and len(members) < self.w:
            return False
        inside = {e for e, uv in enumerate(self.ends) if set(bits_of(uv)) <= members}
        return value_of(self.edge_set) == inside


def _no_smooth_step(child: SetVar, parent: SetVar) -> bool:
    """The child node cannot hang from the parent node in a smooth
    decomposition, where each of the two holds exactly one vertex that
    the other lacks."""
    new = child.required & ~parent.possible
    gone = parent.required & ~child.possible
    return bool(
        new & (new - 1)
        or gone & (gone - 1)
        or not child.possible & ~parent.required
        or not parent.possible & ~child.required
    )


def _smooth_step(child: SetVar, parent: SetVar) -> None:
    """Hang the child node from the parent node smoothly: a node that
    requires a vertex the other cannot hold may hold nothing else that
    the other cannot."""
    if _no_smooth_step(child, parent):
        raise Inconsistent
    new = child.required & ~parent.possible
    if new:
        child.restrict(parent.possible | new)
    gone = parent.required & ~child.possible
    if gone:
        parent.restrict(child.possible | gone)


def _is_smooth_step(child: frozenset, parent: frozenset) -> bool:
    return len(child - parent) == 1 and len(parent - child) == 1


class RunningIntersection(Propagator):
    """For every child node k >= 1 and every other node i: if node i is
    at most as deep as node k, the vertices shared by i and k must all
    appear in k's parent node. The parent is one level above the child:
    parents[k] == p implies depths[k] == depths[p] + 1. The root, node
    0, needs no rule: its parent is itself, which holds everything it
    shares with any node.

    The shared vertices are read straight from the node sets: those
    both nodes require. Once the guard is certainly true and the parent
    p is fixed, node p must hold them, and a vertex that one of the two
    nodes requires but node p cannot hold is excluded from the other.
    With ``smooth``, a parent that node k cannot hang from in a smooth
    decomposition is dropped, and once p is fixed ``_smooth_step`` holds.
    """

    __slots__ = ("depths", "parents", "node_sets", "nodes", "smooth")

    def __init__(
        self,
        depths: list[IntVar],
        parents: list[IntVar],
        node_sets: list[SetVar],
        smooth: bool = False,
    ):
        if not len(depths) == len(parents) == len(node_sets):
            raise ValueError("depths, parents and node sets differ in length")
        super().__init__(list(depths) + list(parents[1:]) + list(node_sets))
        self.depths = list(depths)
        self.parents = list(parents)
        self.node_sets = list(node_sets)
        self.nodes = list(zip(range(len(node_sets)), depths, node_sets))  # (i, depth, set)
        self.smooth = smooth

    def _settle_depths(self) -> None:
        """Keep every child with a fixed parent one level below it, until
        no depth changes: a chain of fixed parents settles in one call."""
        depths = self.depths
        changed = True
        while changed:
            changed = False
            for k, parent in enumerate(self.parents[1:], 1):
                candidates = parent.mask
                if candidates & (candidates - 1) == 0:
                    depth_k = depths[k]
                    depth_p = depths[candidates.bit_length() - 1]
                    if depth_k.mask != depth_p.mask << 1:
                        depth_k.intersect(depth_p.mask << 1)
                        depth_p.intersect(depth_k.mask >> 1)
                        changed = True

    def propagate(self) -> None:
        nodes = self.nodes
        node_sets = self.node_sets
        smooth = self.smooth
        self._settle_depths()
        for k, depth_k, node_k in nodes[1:]:
            parent = self.parents[k]
            for i, depth_i, node_i in nodes:
                if i == k:
                    continue
                dk = depth_k.mask
                di = depth_i.mask
                if parent.mask >> i & 1 and (
                    (di << 1) & dk == 0 or smooth and _no_smooth_step(node_k, node_i)
                ):
                    parent.remove(i)  # node i cannot sit one level above node k
                if (di & -di).bit_length() > dk.bit_length():
                    continue  # guard certainly false: depth_i.min > depth_k.max
                shared_req = node_i.required & node_k.required
                candidates = parent.mask
                if not shared_req and candidates & (candidates - 1):
                    continue  # every candidate absorbs the empty set
                # parents that cannot absorb the shared vertices
                blocked = 0
                rest = candidates
                while rest:
                    low = rest & -rest
                    rest ^= low
                    if shared_req & ~node_sets[low.bit_length() - 1].possible:
                        blocked |= low
                if di.bit_length() <= (dk & -dk).bit_length():
                    # guard certainly true (depth_i.max <= depth_k.min): drop
                    # the blocked parents, then enforce the subset once fixed
                    parent.intersect(~blocked)
                    candidates = parent.mask
                    if candidates & (candidates - 1) == 0:
                        target = node_sets[candidates.bit_length() - 1]
                        target.require_mask(shared_req)
                        node_i.restrict(~(node_k.required & ~target.possible))
                        node_k.restrict(~(node_i.required & ~target.possible))
                elif blocked == candidates:
                    # guard undecided and no parent can hold the subset:
                    # force node i strictly deeper than node k
                    depth_i.intersect(-1 << (dk & -dk).bit_length())
                    depth_k.intersect((1 << (di.bit_length() - 1)) - 1)
            candidates = parent.mask
            if smooth and candidates & (candidates - 1) == 0:
                _smooth_step(node_k, node_sets[candidates.bit_length() - 1])

    def satisfied(self, value_of) -> bool:
        depths = [value_of(d) for d in self.depths]
        bags = [value_of(x) for x in self.node_sets]
        parents = [value_of(p) for p in self.parents[1:]]
        return all(
            depths[k] == depths[p] + 1
            and (not self.smooth or _is_smooth_step(bags[k], bags[p]))
            and all(
                bag & bags[k] <= bags[p]
                for i, (depth, bag) in enumerate(zip(depths, bags))
                if i != k and depth <= depths[k]
            )
            for k, p in enumerate(parents, 1)
        )


class PathIntersection(Propagator):
    """Running intersection on a path: node sets ``xs`` in path order,
    each node hanging from the one before, so the nodes that hold a
    vertex must be contiguous. Reads and prunes whole masks, in one
    backward and one forward pass: a vertex required at two nodes is
    required at every node between them, and a vertex required at one
    node leaves every node beyond a node, on either side, that cannot
    hold it. With ``smooth``, each consecutive pair of nodes is also a
    ``_smooth_step``.
    """

    __slots__ = ("xs", "smooth")

    def __init__(self, xs: list[SetVar], smooth: bool = False):
        super().__init__(xs)
        self.xs = list(xs)
        self.smooth = smooth

    def propagate(self) -> None:
        xs = self.xs
        # backward: what the nodes after each node require, and what a
        # node that cannot hold a later requirement keeps out of the
        # nodes before it
        after = []
        later = cut = 0
        for x in reversed(xs):
            x.restrict(~cut)
            after.append(later)
            cut |= later & ~x.possible
            later |= x.required
        after.reverse()
        # forward: fill the gaps, and cut after a node in the same way
        earlier = cut = 0
        prev = None
        for x, later in zip(xs, after):
            x.require_mask(earlier & later)
            x.restrict(~cut)
            if self.smooth and prev is not None:
                _smooth_step(x, prev)
            cut |= earlier & ~x.possible
            earlier |= x.required
            prev = x

    def satisfied(self, value_of) -> bool:
        bags = [value_of(x) for x in self.xs]
        seen: set = set()
        for prev, bag in zip([frozenset()] + bags, bags):
            if not bag & seen <= prev:
                return False
            seen |= bag
        return not self.smooth or all(map(_is_smooth_step, bags[1:], bags))


def _lex_leq(x: int, y: int) -> bool:
    """Membership mask x is lexicographically <= y, vertex 0 first: at
    the lowest differing element, y holds it."""
    d = x ^ y
    return not d or bool(y & d & -d)


class LexLeq(Propagator):
    """Set a is lexicographically <= set b, comparing membership vectors
    with vertex 0 first.

    A value is supported iff the extreme vectors (a minimal, b maximal)
    with it substituted still compare <=, so the filtering reads only
    ``a.required`` and ``b.possible``. Only elements up to the lowest
    one where those two differ can lose support.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: SetVar, b: SetVar):
        super().__init__(required=[a], possible=[b])
        self.a = a
        self.b = b

    def propagate(self) -> None:
        a, b = self.a, self.b
        amin, bmax = a.required, b.possible
        d = amin ^ bmax
        if d:
            low = d & -d
            if not bmax & low:
                raise Inconsistent
            window = (low << 1) - 1
        else:
            window = -1
        drop = 0
        rest = a.possible & ~amin & window
        while rest:
            low = rest & -rest
            rest ^= low
            if not _lex_leq(amin | low, bmax):
                drop |= low
        force = 0
        rest = bmax & ~b.required & window
        while rest:
            low = rest & -rest
            rest ^= low
            if not _lex_leq(amin, bmax ^ low):
                force |= low
        a.restrict(~drop)
        b.require_mask(force)

    def satisfied(self, value_of) -> bool:
        a, b = (sum(1 << e for e in value_of(x)) for x in (self.a, self.b))
        return _lex_leq(a, b)
