"""Each propagator's filtering against its documented behavior, plus a
generate-and-test soundness sweep on small random instances."""

from __future__ import annotations

import random

import pytest

from helpers import (
    assignment_within_bounds,
    random_constraint_instance,
    snapshot,
    solutions_within,
)
from tdsolve.engine import Solver
from tdsolve.propagators import (
    AtLeastOne,
    CardinalityAtMost,
    EdgeInNode,
    LexLeq,
    RunningIntersection,
    UnionEquals,
)


def test_cardinality_tightens_to_required():
    s = Solver()
    x = s.set_var(4)
    x.require_mask(0b0110)  # {1, 2}
    s.post(CardinalityAtMost(x, 2))
    assert s.propagate()
    assert x.value() == frozenset({1, 2})


def test_cardinality_overfull_fails():
    s = Solver()
    x = s.set_var(4)
    x.require_mask(0b1110)
    s.post(CardinalityAtMost(x, 2))
    assert not s.propagate()


def test_cardinality_slack_changes_nothing():
    s = Solver()
    x = s.set_var(3)
    s.post(CardinalityAtMost(x, 3))
    assert s.propagate()
    assert x.required == 0 and x.possible == 0b111


def test_union_forces_last_support():
    s = Solver()
    x0 = s.set_var(2)
    x1 = s.set_var(2)
    x0.restrict(0b01)  # 1 impossible in x0
    s.post(UnionEquals([x0, x1], 0b11))
    assert s.propagate()
    assert x1.required & 0b10


def test_union_no_support_fails():
    s = Solver()
    x0 = s.set_var(1)
    x0.restrict(0)
    s.post(UnionEquals([x0], 0b1))
    assert not s.propagate()


def test_union_two_supports_no_change():
    s = Solver()
    xs = [s.set_var(2), s.set_var(2)]
    s.post(UnionEquals(xs, 0b11))
    assert s.propagate()
    assert xs[0].required == 0 and xs[1].required == 0


def test_edge_in_node_channels_both_ways():
    s = Solver()
    b = s.int_var(0, 1)
    x = s.set_var(4)
    s.post(EdgeInNode(b, 0, 2, x))
    b.assign(1)
    assert s.propagate()
    assert x.required & 0b101 == 0b101

    s2 = Solver()
    b2 = s2.int_var(0, 1)
    x2 = s2.set_var(4)
    x2.exclude(0)
    s2.post(EdgeInNode(b2, 0, 2, x2))
    assert s2.propagate()
    assert b2.value() == 0

    s3 = Solver()
    b3 = s3.int_var(0, 1)
    x3 = s3.set_var(4)
    x3.include(0)
    b3.assign(0)
    s3.post(EdgeInNode(b3, 0, 2, x3))
    assert s3.propagate()
    assert not x3.possible >> 2 & 1


def test_at_least_one():
    s = Solver()
    bits = [s.int_var(0, 1) for _ in range(3)]
    bits[0].assign(0)
    bits[1].assign(0)
    s.post(AtLeastOne(bits))
    assert s.propagate()
    assert bits[2].value() == 1

    s2 = Solver()
    bits2 = [s2.int_var(0, 1) for _ in range(3)]
    for b in bits2:
        b.assign(0)
    s2.post(AtLeastOne(bits2))
    assert not s2.propagate()

    s3 = Solver()
    bits3 = [s3.int_var(0, 1) for _ in range(2)]
    bits3[0].assign(1)
    s3.post(AtLeastOne(bits3))
    assert s3.propagate()
    assert not bits3[1].is_fixed()


def _running_intersection_setup(size=3):
    # child node k = 1 and node i = 0; every other node may be the parent
    s = Solver()
    depths = [s.int_var(0, size - 1) for _ in range(size)]
    parent_k = s.int_var(0, size - 1)
    parent_k.remove(1)
    nodes = [s.set_var(3) for _ in range(size)]
    prop = RunningIntersection(1, depths, parent_k, nodes)
    return s, depths, parent_k, nodes, prop


def test_running_intersection_fixes_child_depth():
    # no node set requires anything, so only the depth rule can prune
    s, depths, parent, _, prop = _running_intersection_setup()
    depths[0].assign(0)
    parent.assign(0)
    s.post(prop)
    assert s.propagate()
    assert depths[1].value() == 1


def test_running_intersection_removes_parents_at_wrong_depth():
    s, depths, parent, _, prop = _running_intersection_setup(5)
    depths[1].intersect(0b00010)  # depth 1
    depths[3].intersect(0b11000)  # depths 3..4
    s.post(prop)
    assert s.propagate()
    assert parent.domain() == [0, 2, 4]


def test_running_intersection_keeps_parents_at_right_depth():
    s, depths, parent, _, prop = _running_intersection_setup()
    before = snapshot(s)
    s.post(prop)
    assert s.propagate()
    assert parent.domain() == [0, 2]
    assert snapshot(s) == before


def test_running_intersection_satisfied_needs_child_below_parent():
    # node 1 hangs from node 0 and shares vertex 0 with it, which node 0
    # holds: the node sets meet the running intersection either way
    s, depths, parent, nodes, prop = _running_intersection_setup(2)
    value = {parent: 0, depths[0]: 0, nodes[0]: frozenset({0}), nodes[1]: frozenset({0})}
    assert prop.satisfied({**value, depths[1]: 1}.__getitem__)
    assert not prop.satisfied({**value, depths[1]: 0}.__getitem__)


def test_running_intersection_prunes_parent_candidates():
    s, (depth_i, depth_k, _), parent_k, nodes, prop = _running_intersection_setup()
    depth_i.assign(0)  # guard certainly true
    nodes[0].require_mask(0b100)
    nodes[1].require_mask(0b100)  # vertex 2 shared by nodes 0 and 1
    nodes[2].restrict(0b011)  # vertex 2 impossible in node 2
    s.post(prop)
    assert s.propagate()
    assert not parent_k.contains(2)


def test_running_intersection_enforces_subset_when_parent_fixed():
    s, (depth_i, depth_k, _), parent_k, nodes, prop = _running_intersection_setup()
    depth_i.assign(0)
    parent_k.assign(2)
    nodes[0].require_mask(0b001)
    nodes[1].require_mask(0b001)
    s.post(prop)
    assert s.propagate()
    assert nodes[2].required & 0b001


def test_running_intersection_back_prunes_once_parent_fixed():
    # a vertex that one node requires and the fixed parent cannot hold
    # must leave the other node, although nothing is shared yet
    s, (depth_i, depth_k, _), parent_k, nodes, prop = _running_intersection_setup()
    depth_i.assign(0)
    parent_k.assign(2)
    nodes[1].require_mask(0b100)
    nodes[0].require_mask(0b010)
    nodes[2].restrict(0b001)
    s.post(prop)
    assert s.propagate()
    assert nodes[0].possible == 0b011
    assert nodes[1].possible == 0b101
    assert nodes[2].required == 0


def test_running_intersection_idle_when_guard_false():
    s, (depth_i, depth_k, depth_p), parent_k, nodes, prop = _running_intersection_setup()
    depth_i.intersect(0b100)  # depth 2
    depth_k.intersect(0b010)  # depth 1, under its parent at depth 0
    depth_p.assign(0)
    parent_k.assign(2)
    nodes[0].require_mask(0b111)
    nodes[1].require_mask(0b111)
    nodes[2].restrict(0)  # would fail under a true guard
    before = snapshot(s)
    s.post(prop)
    assert s.propagate()
    assert snapshot(s) == before


def test_running_intersection_forces_guard_negation():
    s, (depth_i, depth_k, _), parent_k, nodes, prop = _running_intersection_setup()
    parent_k.assign(2)
    nodes[0].require_mask(0b001)
    nodes[1].require_mask(0b001)
    nodes[2].restrict(0b110)  # the parent may not take vertex 0
    s.post(prop)
    assert s.propagate()
    # bound-level consequence of depth_i > depth_k
    assert not depth_i.contains(0)
    assert not depth_k.contains(2)
    assert depth_i.min() > depth_k.min()
    assert depth_k.max() < depth_i.max()


def test_running_intersection_covers_every_other_node():
    # child k = 2 with two other nodes: node 0 (guard true) removes
    # parent 1, which fixes the parent; node 1 (guard true) then has its
    # shared vertex pushed into node 0
    s = Solver()
    depths = [s.int_var(0, 2) for _ in range(3)]
    parent_k = s.int_var(0, 1)
    nodes = [s.set_var(3) for _ in range(3)]
    depths[0].assign(0)
    depths[1].assign(0)
    depths[2].assign(1)
    nodes[0].require_mask(0b100)
    nodes[1].require_mask(0b010)
    nodes[2].require_mask(0b110)
    nodes[1].restrict(0b011)
    s.post(RunningIntersection(2, depths, parent_k, nodes))
    assert s.propagate()
    assert parent_k.value() == 0
    assert nodes[0].required == 0b110
    with pytest.raises(ValueError):
        RunningIntersection(3, depths, parent_k, nodes)


def test_lex_base_cases():
    s = Solver()
    a, b = s.set_var(2), s.set_var(2)
    a.include(0)
    b.exclude(0)
    s.post(LexLeq(a, b))
    assert not s.propagate()

    s2 = Solver()
    a2, b2 = s2.set_var(2), s2.set_var(2)
    for x in (a2, b2):
        x.exclude(0)
        x.include(1)
    s2.post(LexLeq(a2, b2))
    assert s2.propagate()  # equality allowed

    s3 = Solver()
    a3, b3 = s3.set_var(2), s3.set_var(2)
    a3.exclude(0)
    b3.include(0)
    s3.post(LexLeq(a3, b3))
    assert s3.propagate()
    assert a3.undecided() == 0b10 and b3.undecided() == 0b10


def test_lex_prunes_both_sides():
    # a holds vertex 0, so b must too; then b cannot drop vertex 1 while
    # a holds it
    s = Solver()
    a, b = s.set_var(3), s.set_var(3)
    a.require_mask(0b011)
    s.post(LexLeq(a, b))
    assert s.propagate()
    assert b.required == 0b011 and b.undecided() == 0b100

    # b lacks vertex 0, so a must lack it; vertex 0 decides nothing else
    s2 = Solver()
    a2, b2 = s2.set_var(3), s2.set_var(3)
    b2.exclude(0)
    s2.post(LexLeq(a2, b2))
    assert s2.propagate()
    assert a2.possible == 0b110 and a2.required == 0
    assert b2.undecided() == 0b110


# ---------------------------------------------------------------------------
# Generate-and-test soundness: filtering never removes a supported value,
# and failure implies there were no solutions.


@pytest.mark.parametrize("seed", range(8))
def test_filtering_sound_against_enumeration(seed):
    rng = random.Random(1000 + seed)
    for _ in range(60):
        s = random_constraint_instance(rng)
        ints, sets = snapshot(s)
        solutions = solutions_within(s, ints, sets)
        consistent = s.propagate()
        if not consistent:
            assert solutions == [], "filtering failed a satisfiable instance"
            continue
        for sol in solutions:
            assert assignment_within_bounds(s, sol), "a supported value was removed"
        # fixpoint: rerunning every propagator must change nothing
        before = snapshot(s)
        for prop in s.propagators:
            s._schedule(prop)
        assert s.propagate()
        assert snapshot(s) == before
