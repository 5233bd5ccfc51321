"""Each propagator's filtering against its documented behavior, plus a
generate-and-test soundness sweep on small random instances."""

from __future__ import annotations

import random

import pytest

from helpers import (
    assignment_within_bounds,
    draw_graph,
    random_constraint_instance,
    snapshot,
    solutions_within,
    tighten_randomly,
    width_rule,
)
from tdsolve import propagators
from tdsolve.driver import decide
from tdsolve.engine import Inconsistent, Propagator, Solver, Status
from tdsolve.model import Variant
from tdsolve.propagators import (
    EdgeInNode,
    LexLeq,
    PathIntersection,
    RunningIntersection,
    UnionEquals,
    incidence,
)


def test_cardinality_tightens_to_required():
    s = Solver()
    x = s.set_var(4)
    x.require_mask(0b0110)  # {1, 2}
    s.post(width_rule(s, x, 2))
    assert s.propagate()
    assert x.value() == frozenset({1, 2})


def test_cardinality_overfull_fails():
    s = Solver()
    x = s.set_var(4)
    x.require_mask(0b1110)
    s.post(width_rule(s, x, 2))
    assert not s.propagate()


def test_cardinality_slack_changes_nothing():
    s = Solver()
    x = s.set_var(3)
    s.post(width_rule(s, x, 3))
    assert s.propagate()
    assert x.required == 0 and x.possible == 0b111


def test_exact_cardinality_takes_every_possible_element():
    s = Solver()
    x = s.set_var(4)
    x.restrict(0b1011)
    s.post(width_rule(s, x, 3, exact=True))
    assert s.propagate()
    assert x.value() == frozenset({0, 1, 3})


def test_exact_cardinality_fails_short_and_wakes_on_possible():
    s = Solver()
    x = s.set_var(4)
    s.post(width_rule(s, x, 3, exact=True))
    assert s.propagate() and x.required == 0
    x.exclude(0)  # a possible event alone completes the count
    assert s.propagate()
    assert x.required == 0b1110
    s2 = Solver()
    x2 = s2.set_var(4)
    x2.restrict(0b0011)
    s2.post(width_rule(s2, x2, 3, exact=True))
    assert not s2.propagate()


def test_exact_cardinality_satisfied_needs_the_exact_count():
    s = Solver()
    x = s.set_var(3)
    at_most, exact = width_rule(s, x, 2), width_rule(s, x, 2, exact=True)
    none = {at_most.edge_set: frozenset(), exact.edge_set: frozenset()}
    assert at_most.satisfied({**none, x: frozenset({0})}.__getitem__)
    assert not at_most.satisfied({**none, x: frozenset({0, 1, 2})}.__getitem__)
    assert not exact.satisfied({**none, x: frozenset({0})}.__getitem__)
    assert exact.satisfied({**none, x: frozenset({0, 2})}.__getitem__)


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


# the path 0-1-2-3 plus the chord 0-2: edges 0 (0,1), 1 (0,2), 2 (1,2), 3 (2,3)
CHANNEL_EDGES = [(0, 1), (0, 2), (1, 2), (2, 3)]


def _channel(w=4, exact=False):
    s = Solver()
    x = s.set_var(4)
    edge_set = s.set_var(len(CHANNEL_EDGES))
    return s, x, edge_set, EdgeInNode(x, edge_set, *incidence(4, CHANNEL_EDGES), w, exact)


def test_incidence_masks():
    ends, incident = incidence(4, CHANNEL_EDGES)
    assert ends == [0b0011, 0b0101, 0b0110, 0b1100]
    assert incident == [0b0011, 0b0101, 0b1110, 0b1000]
    with pytest.raises(ValueError):
        incidence(2, [(1, 1)])


def test_edge_in_node_drops_edges_at_impossible_vertices():
    s, x, edge_set, prop = _channel()
    x.exclude(2)
    s.post(prop)
    assert s.propagate()
    assert edge_set.possible == 0b0001 and edge_set.required == 0
    assert x.required == 0


def test_edge_in_node_channels_both_ways():
    # required vertices 0, 1, 2 take the edges among them
    s, x, edge_set, prop = _channel()
    x.require_mask(0b0111)
    s.post(prop)
    assert s.propagate()
    assert edge_set.required == 0b0111 and edge_set.undecided() == 0b1000

    # a required edge (2, 3) takes its ends, and decides nothing else
    s2, x2, edge_set2, prop2 = _channel()
    edge_set2.include(3)
    s2.post(prop2)
    assert s2.propagate()
    assert x2.required == 0b1100
    assert edge_set2.required == 0b1000 and edge_set2.undecided() == 0b0111


def test_edge_in_node_excluded_edge_keeps_the_other_end_out():
    s, x, edge_set, prop = _channel()
    edge_set.exclude(1)  # edge (0, 2)
    edge_set.exclude(2)  # edge (1, 2)
    x.include(2)
    s.post(prop)
    assert s.propagate()
    assert x.possible == 0b1100
    # vertices 0 and 1 are out, so edge (0, 1) is too
    assert edge_set.possible == 0b1000


def test_edge_in_node_fails_on_an_excluded_edge_within_the_node():
    s, x, edge_set, prop = _channel()
    edge_set.exclude(0)
    x.require_mask(0b0011)
    s.post(prop)
    assert not s.propagate()


def test_edge_in_node_satisfied_reads_both_sets():
    _, x, edge_set, prop = _channel()
    value = {x: frozenset({0, 1, 2})}
    assert prop.satisfied({**value, edge_set: frozenset({0, 1, 2})}.__getitem__)
    assert not prop.satisfied({**value, edge_set: frozenset({0, 1})}.__getitem__)
    assert not prop.satisfied({**value, edge_set: frozenset({0, 1, 2, 3})}.__getitem__)


def test_edge_in_node_width_drops_the_edges_at_what_a_full_node_leaves_out():
    # two required vertices fill a node of width 2: vertices 2 and 3
    # leave it, and with them every edge but (0, 1), which joins it
    s, x, edge_set, prop = _channel(w=2)
    x.require_mask(0b0011)
    s.post(prop)
    assert s.propagate()
    assert x.possible == 0b0011
    assert edge_set.required == edge_set.possible == 0b0001


def test_edge_in_node_exact_node_cut_to_its_width_takes_the_edges_within():
    # the excluded edge (0, 2) at required vertex 0 keeps vertex 2 out,
    # which leaves exactly w = 3 vertices: the node requires them all,
    # and so the edge (0, 1) among them, in the same call
    s, x, edge_set, prop = _channel(w=3, exact=True)
    x.include(0)
    edge_set.exclude(1)
    s.post(prop)
    assert s.propagate()
    assert x.value() == frozenset({0, 1, 3})
    assert edge_set.value() == frozenset({0})
    assert s.propagations == 1


def test_union_of_edge_sets_places_every_edge():
    # three nodes' edge sets over two edges: edge 0 is left to node 2
    s = Solver()
    edge_sets = [s.set_var(2) for _ in range(3)]
    edge_sets[0].exclude(0)
    edge_sets[1].exclude(0)
    s.post(UnionEquals(edge_sets, 0b11))
    assert s.propagate()
    assert edge_sets[2].required == 0b01
    assert [x.required for x in edge_sets[:2]] == [0, 0]

    s2 = Solver()
    edge_sets2 = [s2.set_var(2) for _ in range(3)]
    for x in edge_sets2:
        x.exclude(1)
    s2.post(UnionEquals(edge_sets2, 0b11))
    assert not s2.propagate()

    # a node that holds edge 0 leaves the others open
    s3 = Solver()
    edge_sets3 = [s3.set_var(1) for _ in range(2)]
    edge_sets3[0].include(0)
    s3.post(UnionEquals(edge_sets3, 0b1))
    assert s3.propagate()
    assert not edge_sets3[1].is_fixed()


def _running_intersection_setup(size=3):
    # node 0 is the root; the tests read the rules of child node k = 1
    # against node i = 0. Every node but a child itself may be its parent.
    s = Solver()
    depths = [s.int_var(0, size - 1) for _ in range(size)]
    parents = [s.int_var(0, 0)] + [s.int_var(0, size - 1) for _ in range(1, size)]
    for k in range(1, size):
        parents[k].remove(k)
    nodes = [s.set_var(3) for _ in range(size)]
    prop = RunningIntersection(depths, parents, nodes)
    return s, depths, parents, nodes, prop


def test_running_intersection_fixes_child_depth():
    # no node set requires anything, so only the depth rule can prune
    s, depths, parents, _, prop = _running_intersection_setup()
    depths[0].assign(0)
    parents[1].assign(0)
    s.post(prop)
    assert s.propagate()
    assert depths[1].value() == 1
    # and the parent's depth from the child's
    s, depths, parents, _, prop = _running_intersection_setup()
    depths[1].assign(2)
    parents[1].assign(0)
    s.post(prop)
    assert s.propagate()
    assert depths[0].value() == 1


def test_running_intersection_removes_parents_at_wrong_depth():
    s, depths, parents, _, prop = _running_intersection_setup(5)
    depths[1].intersect(0b00010)  # depth 1
    depths[3].intersect(0b11000)  # depths 3..4
    s.post(prop)
    assert s.propagate()
    assert parents[1].domain() == [0, 2, 4]


def test_running_intersection_keeps_parents_at_right_depth():
    s, _, parents, _, prop = _running_intersection_setup()
    before = snapshot(s)
    s.post(prop)
    assert s.propagate()
    assert parents[1].domain() == [0, 2]
    assert snapshot(s) == before


def test_running_intersection_satisfied_needs_child_below_parent():
    # node 1 hangs from node 0 and shares vertex 0 with it, which node 0
    # holds: the node sets meet the running intersection either way
    s, depths, parents, nodes, prop = _running_intersection_setup(2)
    value = {parents[1]: 0, depths[0]: 0, nodes[0]: frozenset({0}), nodes[1]: frozenset({0})}
    assert prop.satisfied({**value, depths[1]: 1}.__getitem__)
    assert not prop.satisfied({**value, depths[1]: 0}.__getitem__)


def test_running_intersection_prunes_parent_candidates():
    s, (depth_i, depth_k, _), parents, nodes, prop = _running_intersection_setup()
    depth_i.assign(0)  # guard certainly true
    nodes[0].require_mask(0b100)
    nodes[1].require_mask(0b100)  # vertex 2 shared by nodes 0 and 1
    nodes[2].restrict(0b011)  # vertex 2 impossible in node 2
    s.post(prop)
    assert s.propagate()
    assert 2 not in parents[1].domain()


def test_running_intersection_enforces_subset_when_parent_fixed():
    s, (depth_i, depth_k, _), parents, nodes, prop = _running_intersection_setup()
    depth_i.assign(0)
    parents[1].assign(2)
    nodes[0].require_mask(0b001)
    nodes[1].require_mask(0b001)
    s.post(prop)
    assert s.propagate()
    assert nodes[2].required & 0b001


def test_running_intersection_back_prunes_once_parent_fixed():
    # a vertex that one node requires and the fixed parent cannot hold
    # must leave the other node, although nothing is shared yet
    s, (depth_i, depth_k, _), parents, nodes, prop = _running_intersection_setup()
    depth_i.assign(0)
    parents[1].assign(2)
    nodes[1].require_mask(0b100)
    nodes[0].require_mask(0b010)
    nodes[2].restrict(0b001)
    s.post(prop)
    assert s.propagate()
    assert nodes[0].possible == 0b011
    assert nodes[1].possible == 0b101
    assert nodes[2].required == 0


def test_running_intersection_idle_when_guard_false():
    # node 2 hangs from child node 1 and both hold every vertex; node
    # 1's parent, the root, can hold none, so the pair (k = 1, i = 2)
    # would fail under a true guard
    s, (depth_r, depth_k, depth_i), parents, nodes, prop = _running_intersection_setup()
    depth_r.assign(0)
    depth_k.assign(1)
    depth_i.assign(2)
    parents[1].assign(0)
    parents[2].assign(1)
    nodes[1].require_mask(0b111)
    nodes[2].require_mask(0b111)
    nodes[0].restrict(0)
    before = snapshot(s)
    s.post(prop)
    assert s.propagate()
    assert snapshot(s) == before


def test_running_intersection_forces_guard_negation():
    # child k = 1 shares vertex 0 with node i = 2, and neither of its
    # candidate parents, nodes 0 and 3, can hold it
    s, depths, parents, nodes, prop = _running_intersection_setup(4)
    depth_k, depth_i = depths[1], depths[2]
    parents[1].intersect(0b1001)
    nodes[1].require_mask(0b001)
    nodes[2].require_mask(0b001)
    nodes[0].restrict(0b110)
    nodes[3].restrict(0b110)
    s.post(prop)
    assert s.propagate()
    # bound-level consequence of depth_i > depth_k
    assert 0 not in depth_i.domain()
    assert 3 not in depth_k.domain()
    assert min(depth_i.domain()) > min(depth_k.domain())
    assert max(depth_k.domain()) < max(depth_i.domain())


def test_running_intersection_covers_every_other_node():
    # child k = 3 with two other nodes at depth 1: node 1 (guard true)
    # removes parent 2, which fixes the parent; node 2 (guard true) then
    # has its shared vertex pushed into node 1
    s, depths, parents, nodes, prop = _running_intersection_setup(4)
    for depth, d in zip(depths, (0, 1, 1, 2)):
        depth.assign(d)
    nodes[1].require_mask(0b100)
    nodes[2].require_mask(0b010)
    nodes[3].require_mask(0b110)
    nodes[2].restrict(0b011)
    s.post(prop)
    assert s.propagate()
    assert parents[3].value() == 1
    assert nodes[1].required == 0b110
    # and every child's parent: nodes 1 and 2 hang from the root
    assert [p.value() for p in parents] == [0, 0, 0, 1]
    with pytest.raises(ValueError):
        RunningIntersection(depths, parents[:3], nodes)


def test_running_intersection_smooth_drops_parents():
    # child k = 1 requires vertex 0; each candidate parent fails one of
    # the four smooth-step tests, except node 2
    def drops(tighten):
        s, depths, parents, nodes, _ = _running_intersection_setup(4)
        for d in depths:
            d.intersect(0b11)
        depths[1].assign(1)
        tighten(nodes)
        s.post(RunningIntersection(depths, parents, nodes, smooth=True))
        return s.propagate(), parents[1].domain()

    def child_needs_two(nodes):  # node 0 cannot hold two vertices node 1 requires
        nodes[1].require_mask(0b011)
        nodes[0].restrict(0b100)

    def parent_needs_two(nodes):  # node 0 requires two vertices node 1 cannot hold
        nodes[0].require_mask(0b110)
        nodes[1].restrict(0b001)

    def child_nothing_new(nodes):  # node 1 can hold only what node 0 requires
        nodes[0].require_mask(0b011)
        nodes[1].restrict(0b011)

    def parent_nothing_gone(nodes):  # node 0 can hold only what node 1 requires
        nodes[1].require_mask(0b011)
        nodes[0].restrict(0b011)

    for tighten in (child_needs_two, parent_needs_two, child_nothing_new, parent_nothing_gone):
        assert drops(tighten) == (True, [2, 3]), tighten.__name__
    assert drops(lambda nodes: None) == (True, [0, 2, 3])


def test_running_intersection_smooth_step_once_parent_fixed():
    # node 1 holds vertex 2, which parent node 0 cannot: every other
    # vertex of node 1 must be possible in node 0, and the reverse
    s, depths, parents, nodes, _ = _running_intersection_setup(3)
    parents[1].assign(0)
    nodes[1].require_mask(0b100)
    nodes[0].restrict(0b011)
    nodes[0].require_mask(0b001)
    nodes[1].restrict(0b110)
    s.post(RunningIntersection(depths, parents, nodes, smooth=True))
    assert s.propagate()
    assert nodes[1].possible == 0b110 and nodes[0].possible == 0b011
    nodes[0].exclude(1)  # so node 1 may hold vertex 2 alone
    assert s.propagate()
    assert nodes[1].possible == 0b100
    s2, depths2, parents2, nodes2, _ = _running_intersection_setup(3)
    parents2[1].assign(0)
    nodes2[1].require_mask(0b011)
    nodes2[0].restrict(0b100)
    s2.post(RunningIntersection(depths2, parents2, nodes2, smooth=True))
    assert not s2.propagate()


def test_running_intersection_smooth_satisfied():
    s, depths, parents, nodes, _ = _running_intersection_setup(2)
    prop = RunningIntersection(depths, parents, nodes, smooth=True)

    def value(parent_bag, child_bag):
        bags = {nodes[0]: frozenset(parent_bag), nodes[1]: frozenset(child_bag)}
        return {parents[1]: 0, depths[0]: 0, depths[1]: 1, **bags}.__getitem__

    assert prop.satisfied(value({0, 1}, {1, 2}))
    assert not prop.satisfied(value({0}, {0, 1}))  # the child keeps all of its parent
    assert not prop.satisfied(value({0}, {1, 2}))  # the child adds two


def _chain(length=4, size=4, smooth=False):
    s = Solver()
    nodes = [s.set_var(size) for _ in range(length)]
    return s, nodes, PathIntersection(nodes, smooth)


def test_chain_fills_between_requirements():
    s, nodes, prop = _chain()
    nodes[0].include(1)
    nodes[3].include(1)
    s.post(prop)
    assert s.propagate()
    assert [x.required for x in nodes] == [0b10] * 4


def test_chain_cuts_after_a_gap():
    s, nodes, prop = _chain()
    nodes[1].include(2)
    nodes[2].exclude(2)
    s.post(prop)
    assert s.propagate()
    assert [x.possible >> 2 & 1 for x in nodes] == [1, 1, 0, 0]


def test_chain_cuts_before_a_gap():
    s, nodes, prop = _chain()
    nodes[3].include(0)
    nodes[1].exclude(0)
    s.post(prop)
    assert s.propagate()
    assert [x.possible & 1 for x in nodes] == [0, 0, 1, 1]
    assert [x.required for x in nodes] == [0, 0, 0, 1]


def test_chain_fails_on_a_gap_between_requirements():
    s, nodes, prop = _chain()
    nodes[0].include(3)
    nodes[3].include(3)
    nodes[2].exclude(3)
    s.post(prop)
    assert not s.propagate()


def test_chain_smooth_restricts_consecutive_nodes():
    # node 1 holds vertex 3, which node 0 cannot: node 1 may hold nothing
    # else that node 0 cannot, and node 0 nothing else that node 1 cannot
    s, nodes, prop = _chain(length=2, smooth=True)
    nodes[0].restrict(0b0111)
    nodes[1].include(3)
    nodes[0].include(0)
    nodes[1].restrict(0b1110)
    s.post(prop)
    assert s.propagate()
    assert nodes[0].possible == 0b0111 and nodes[1].possible == 0b1110
    nodes[0].exclude(1)
    assert s.propagate()
    assert nodes[1].possible == 0b1100


def test_chain_smooth_failures():
    def fails(tighten):
        s, nodes, prop = _chain(length=2, smooth=True)
        tighten(*nodes)
        s.post(prop)
        return not s.propagate()

    # either node requires two vertices the other cannot hold
    assert fails(lambda a, b: (b.require_mask(0b0011), a.restrict(0b1100)))
    assert fails(lambda a, b: (a.require_mask(0b0011), b.restrict(0b1100)))
    # either node can hold nothing beyond what the other requires
    assert fails(lambda a, b: (a.require_mask(0b0011), b.restrict(0b0011)))
    assert fails(lambda a, b: (b.require_mask(0b0110), a.restrict(0b0110)))
    assert not fails(lambda a, b: (a.require_mask(0b0011), b.restrict(0b0111)))


def test_chain_satisfied_needs_contiguous_and_smooth_nodes():
    s, nodes, bare = _chain(length=3)
    smooth = PathIntersection(nodes, smooth=True)

    def value(*bags):
        return dict(zip(nodes, map(frozenset, bags))).__getitem__

    assert bare.satisfied(value({0, 1}, {1, 2}, {2}))
    assert not bare.satisfied(value({0, 1}, {1}, {0, 2}))  # vertex 0 leaves and returns
    assert smooth.satisfied(value({0, 1}, {1, 2}, {2, 3}))
    assert not smooth.satisfied(value({0, 1}, {1, 2}, {0, 1}))  # not contiguous
    assert not smooth.satisfied(value({0, 1}, {1, 2}, {2}))  # node 2 adds nothing
    assert not smooth.satisfied(value({0}, {1, 2}, {2, 3}))  # node 1 adds two


def test_chain_prunes_at_least_what_the_pairwise_rule_does():
    # on a path, with parents and depths fixed, the chain's fixpoint
    # contains the one of the pairwise RunningIntersection rules
    rng = random.Random(77)
    for _ in range(300):
        m = rng.randint(2, 4)
        chain = Solver()
        chain_nodes = [chain.set_var(3) for _ in range(m)]
        tighten_randomly(chain, rng)
        chain.post(PathIntersection(chain_nodes))
        pairwise = Solver()
        depths = [pairwise.int_var(i, i) for i in range(m)]
        parents = [pairwise.int_var(max(i - 1, 0), max(i - 1, 0)) for i in range(m)]
        nodes = [pairwise.set_var(3) for _ in range(m)]
        for x, y in zip(nodes, chain_nodes):
            x.required, x.possible = y.required, y.possible
        pairwise.post(RunningIntersection(depths, parents, nodes))
        if not pairwise.propagate():
            assert not chain.propagate()
        elif chain.propagate():
            for x, y in zip(nodes, chain_nodes):
                assert x.required & ~y.required == 0 and y.possible & ~x.possible == 0


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
            s._wake([prop])
        assert s.propagate()
        assert snapshot(s) == before


IDEMPOTENT = {
    cls
    for cls in vars(propagators).values()
    if isinstance(cls, type) and issubclass(cls, Propagator) and cls.idempotent
}


@pytest.mark.parametrize("seed", range(4))
def test_idempotent_propagators_reach_their_own_fixpoint_in_one_call(seed):
    # the engine does not wake a propagator declared idempotent for its
    # own changes, so a second call right after the first must change
    # no domain
    rng = random.Random(2000 + seed)
    seen = set()
    for _ in range(400):
        s = random_constraint_instance(rng)
        for prop in s.propagators:
            if not prop.idempotent:
                continue
            seen.add(type(prop))
            try:
                prop.propagate()
            except Inconsistent:
                continue
            before = snapshot(s)
            prop.propagate()
            assert snapshot(s) == before, type(prop).__name__
    assert seen == IDEMPOTENT == {EdgeInNode}


@pytest.mark.parametrize(
    "graph, m, w, variant, decisions",
    [
        (draw_graph(9, 907, 0.7, 17), 4, 6, Variant.TREE, 3070),
        (draw_graph(9, 905, 0.5, 84), 5, 5, Variant.PATH, 740),
    ],
    ids=["tree17", "path84"],
)
def test_wrapped_propagate_calls_add_up_to_the_engine_count(
    monkeypatch, graph, m, w, variant, decisions
):
    # bench/tracer.py wraps every propagator class's propagate and
    # checks that the wrapped calls equal the engine's propagations; a
    # propagator that re-entered its own propagate to reach its
    # fixpoint would be counted more than once
    calls = 0
    for cls in vars(propagators).values():
        if isinstance(cls, type) and issubclass(cls, Propagator) and cls is not Propagator:

            def counted(prop, original=cls.propagate):
                nonlocal calls
                calls += 1
                original(prop)

            monkeypatch.setattr(cls, "propagate", counted)
    step = decide(graph, m, w, variant)
    assert (step.status, step.report.decisions) == (Status.UNSAT, decisions)
    assert calls == step.report.propagations
