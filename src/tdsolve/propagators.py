"""Propagators for the decomposition model.

Each class filters one constraint at subset-bound / domain level and
carries a ``satisfied`` method that evaluates the constraint directly on
a full assignment (used to audit witnesses without going through the
filtering code). ``RunningIntersection`` also keeps each child one
level below its parent: the depth variables serve only its guard.
"""

from __future__ import annotations

from .engine import Inconsistent, IntVar, Propagator, SetVar, bits_of


class CardinalityAtMost(Propagator):
    """|X| <= bound. Reads only ``required``, so wakes only when it grows."""

    __slots__ = ("x", "bound")

    def __init__(self, x: SetVar, bound: int):
        if bound < 0:
            raise ValueError("cardinality bound must be nonnegative")
        super().__init__(required=[x])
        self.x = x
        self.bound = bound

    def propagate(self) -> None:
        required = self.x.required
        count = required.bit_count()
        if count > self.bound:
            raise Inconsistent
        if count == self.bound:
            self.x.restrict(required)

    def satisfied(self, value_of) -> bool:
        return len(value_of(self.x)) <= self.bound


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
        pos_union = 0
        for x in self.xs:
            req_union |= x.required
            pos_union |= x.possible
        if self.universe & ~pos_union:
            raise Inconsistent
        remaining = self.universe & ~req_union
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            holder = None
            supports = 0
            for x in self.xs:
                if x.possible & low:
                    holder = x
                    supports += 1
                    if supports > 1:
                        break
            if supports == 1:
                holder.require_mask(low)

    def satisfied(self, value_of) -> bool:
        acc = set()
        for x in self.xs:
            acc |= value_of(x)
        return acc == set(bits_of(self.universe))


class EdgeInNode(Propagator):
    """bit == 1 <=> both endpoints of the edge are in the node."""

    __slots__ = ("bit", "u", "v", "node", "uv_mask")

    def __init__(self, bit: IntVar, u: int, v: int, node: SetVar):
        if u == v:
            raise ValueError("self-loops are not representable")
        super().__init__([bit, node])
        self.bit = bit
        self.u = u
        self.v = v
        self.node = node
        self.uv_mask = (1 << u) | (1 << v)

    def propagate(self) -> None:
        bit, node = self.bit, self.node
        if bit.mask == 0b10:
            node.require_mask(self.uv_mask)
        elif bit.mask == 0b01:
            if node.required >> self.u & 1:
                node.exclude(self.v)
            if node.required >> self.v & 1:
                node.exclude(self.u)
        if self.uv_mask & ~node.possible:
            bit.assign(0)
        elif self.uv_mask & ~node.required == 0:
            bit.assign(1)

    def satisfied(self, value_of) -> bool:
        inside = {self.u, self.v} <= value_of(self.node)
        return (value_of(self.bit) == 1) == inside


class AtLeastOne(Propagator):
    """At least one of the 0/1 variables is 1."""

    __slots__ = ("bits",)

    def __init__(self, bits: list[IntVar]):
        super().__init__(bits)
        self.bits = list(bits)

    def propagate(self) -> None:
        last_open = None
        open_count = 0
        for b in self.bits:
            if b.mask == 0b10:
                return
            if b.mask == 0b11:
                last_open = b
                open_count += 1
        if open_count == 0:
            raise Inconsistent
        if open_count == 1:
            last_open.assign(1)

    def satisfied(self, value_of) -> bool:
        return any(value_of(b) == 1 for b in self.bits)


class RunningIntersection(Propagator):
    """For child node k and every other node i: if node i is at most as
    deep as node k, the vertices shared by i and k must all appear in
    k's parent node. The parent is one level above the child:
    parent_k == p implies depth_k == depth_p + 1.

    The shared vertices are read straight from the node sets: those
    both nodes require. Once the guard is certainly true and the parent
    p is fixed, node p must hold them, and a vertex that one of the two
    nodes requires but node p cannot hold is excluded from the other.
    """

    __slots__ = ("node_k", "depth_k", "parent_k", "depths", "node_sets", "pairs")

    def __init__(
        self,
        k: int,
        depths: list[IntVar],
        parent_k: IntVar,
        node_sets: list[SetVar],
    ):
        if len(depths) != len(node_sets) or not 0 <= k < len(node_sets):
            raise ValueError(f"child node {k} is not one of {len(node_sets)} nodes")
        super().__init__(list(depths) + [parent_k] + list(node_sets))
        self.node_k = node_sets[k]
        self.depth_k = depths[k]
        self.parent_k = parent_k
        self.depths = list(depths)
        self.node_sets = list(node_sets)
        self.pairs = [(i, depths[i], node_sets[i]) for i in range(len(node_sets)) if i != k]

    def propagate(self) -> None:
        node_k = self.node_k
        depth_k = self.depth_k
        parent = self.parent_k
        node_sets = self.node_sets
        for i, depth_i, node_i in self.pairs:
            dk = depth_k.mask
            di = depth_i.mask
            if parent.mask >> i & 1 and (di << 1) & dk == 0:
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
        if candidates & (candidates - 1) == 0:
            depth_p = self.depths[candidates.bit_length() - 1]
            if depth_k.mask != depth_p.mask << 1:
                depth_k.intersect(depth_p.mask << 1)
                depth_p.intersect(depth_k.mask >> 1)

    def satisfied(self, value_of) -> bool:
        depth_k = value_of(self.depth_k)
        node_k = value_of(self.node_k)
        p = value_of(self.parent_k)
        bag = value_of(self.node_sets[p])
        return depth_k == value_of(self.depths[p]) + 1 and all(
            value_of(node_i) & node_k <= bag
            for _, depth_i, node_i in self.pairs
            if value_of(depth_i) <= depth_k
        )


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
