"""Model construction: variable counts, posted constraints, decoding."""

from __future__ import annotations

import itertools
import random
import signal

import pytest

from helpers import (
    all_labeled_graphs,
    complete_graph,
    cycle_graph,
    decomposition,
    path_graph,
    random_graph,
    search_model,
    snapshot,
    solved_assignment,
)
from tdsolve.driver import _schedule_pairs, decide, smooth_decomposition, upper_bound
from tdsolve.engine import Status
from tdsolve.graphs import TreeDecomposition
from tdsolve.model import Variant, build_model, extract_decomposition
from tdsolve.propagators import LexLeq, PathIntersection, RunningIntersection
from tdsolve.validator import validate


def lex_count(mi):
    return sum(1 for p in mi.solver.propagators if isinstance(p, LexLeq))


def test_variable_counts_k3():
    mi = build_model(complete_graph(3), m=1, w=3)
    assert len(mi.node_sets) == 1
    assert [x.universe for x in mi.edge_sets] == [0b111]  # 3 edges, 1 node
    assert len(mi.solver.set_vars) == 2
    assert lex_count(mi) == 0


def test_variable_counts_c4():
    mi = build_model(cycle_graph(4), m=3, w=2)
    assert len(mi.node_sets) == 3
    assert [x.universe for x in mi.edge_sets] == [0b1111] * 3  # 4 edges, 3 nodes
    assert len(mi.solver.set_vars) == 6
    assert lex_count(mi) == 2


@pytest.mark.parametrize("m", [1, 2, 4])
def test_size_formulas(m):
    g = random_graph(5, 0.5, random.Random(m))
    mi = build_model(g, m=m, w=3)
    assert len(mi.node_sets) == len(mi.edge_sets) == m
    assert len(mi.solver.set_vars) == 2 * m
    assert len(mi.solver.int_vars) == 2 * m  # parents and depths
    assert lex_count(mi) == m - 1
    # per node: the width and edge channel; per child node: lex; one
    # running intersection, the union of the node sets and the union of
    # the edge sets
    assert len(mi.solver.propagators) == m + (m - 1) + 3
    assert [type(p) for p in mi.solver.propagators].count(RunningIntersection) == 1
    assert mi.decision_vars == mi.parents + mi.edge_sets


def test_path_variant_lex_is_reversal_only():
    g = path_graph(4)
    mi = build_model(g, m=3, w=2, variant=Variant.PATH)
    assert lex_count(mi) == 1


@pytest.mark.parametrize("smooth", [False, True])
def test_path_size_formulas(smooth):
    # no parents or depths, and one chain instead of the tree's running
    # intersection
    g = random_graph(5, 0.5, random.Random(3))
    mi = build_model(g, m=4, w=2, variant=Variant.PATH, smooth=smooth)
    assert mi.depths == []
    assert mi.parents == mi.solver.int_vars == []
    kinds = [type(p) for p in mi.solver.propagators]
    assert kinds.count(PathIntersection) == 1 and RunningIntersection not in kinds
    assert len(kinds) == 4 + 4  # width and channel per node, two unions, chain, lex
    assert all(p.smooth is smooth for p in mi.solver.propagators if isinstance(p, PathIntersection))


def _watcher_entries(solver):
    return sum(len(v.watchers) for v in solver.int_vars) + sum(
        len(x.required_watchers) + len(x.possible_watchers) for x in solver.set_vars
    )


def test_models_grow_linearly_in_m():
    # the tree's running intersection and the path chain each subscribe
    # once per variable, so every variable has a constant number of
    # watchers: 12 per node on a tree, 8 on a path
    g = path_graph(3)
    bound = {Variant.TREE: 13, Variant.PATH: 9}
    for variant, m in itertools.product(Variant, (10, 100, 400)):
        mi = build_model(g, m=m, w=2, variant=variant)
        assert _watcher_entries(mi.solver) < bound[variant] * m, (variant, m)


def test_build_rejects_degenerate_inputs():
    g = path_graph(2)
    with pytest.raises(ValueError):
        build_model(g, m=0, w=1)
    with pytest.raises(ValueError):
        build_model(g, m=1, w=0)
    from tdsolve.graphs import Graph

    with pytest.raises(ValueError):
        build_model(Graph.from_edges(0, []), m=1, w=1)


def test_extract_k3_single_node():
    mi = build_model(complete_graph(3), m=1, w=3)
    report = mi.solver.solve(decision_vars=mi.decision_vars)
    assert report.status is Status.SAT
    td = extract_decomposition(mi)
    assert td.nodes == (frozenset({0, 1, 2}),)
    assert td.parent == (0,)
    assert td.width == 3


def test_extract_p3_two_nodes():
    g = path_graph(3)
    mi = build_model(g, m=2, w=2)
    report = mi.solver.solve(decision_vars=mi.decision_vars)
    assert report.status is Status.SAT
    td = extract_decomposition(mi)
    assert validate(g, td, expect_m=2, expect_w=2) == []
    assert 1 in td.nodes[0] and 1 in td.nodes[1]  # shared middle vertex


def test_extract_from_an_unsolved_model_raises():
    mi = build_model(path_graph(3), m=2, w=2)
    with pytest.raises(ValueError):
        extract_decomposition(mi)
    assert mi.solver.propagate()  # the root fixpoint leaves node sets open
    with pytest.raises(ValueError):
        extract_decomposition(mi)


def test_a_sat_solve_leaves_every_variable_fixed():
    rng = random.Random(7)
    solved = 0
    for _ in range(12):
        g = random_graph(rng.randint(2, 6), 0.5, rng)
        for variant, smooth in itertools.product(Variant, (False, True)):
            for m, w in _schedule_pairs(g.n)[:3]:
                mi = build_model(g, m, w, variant=variant, smooth=smooth)
                report = mi.solver.solve(decision_vars=mi.decision_vars)
                if report.status is not Status.SAT:
                    continue
                variables = mi.solver.int_vars + mi.solver.set_vars
                assert all(var.is_fixed() for var in variables), (g.edges, variant, m, w)
                solved += 1
    assert solved > 100


def _hops_to_root(parent, i):
    hops = 0
    while i != 0:
        i = parent[i]
        hops += 1
    return hops


def test_every_witness_validates():
    rng = random.Random(5)
    deepest = 0
    for _ in range(20):
        g = random_graph(rng.randint(2, 5), 0.5, rng)
        for m, w in _schedule_pairs(g.n):
            mi = build_model(g, m, w)
            if mi.solver.solve(decision_vars=mi.decision_vars).status is not Status.SAT:
                break
            td = extract_decomposition(mi)
            assert validate(g, td, expect_m=m, expect_w=w) == []
            # the model's depths are the hop counts of the extracted tree
            depths = [_hops_to_root(td.parent, i) for i in range(m)]
            assert [d.value() for d in mi.depths] == depths
            deepest = max(deepest, *depths)
    assert deepest >= 3


def test_witness_passes_straight_line_constraint_audit():
    rng = random.Random(29)
    for _ in range(10):
        g = random_graph(rng.randint(2, 5), 0.5, rng)
        mi = build_model(g, m=min(3, g.n), w=max(2, g.n - 1))
        report = mi.solver.solve(decision_vars=mi.decision_vars)
        assert report.status is Status.SAT
        assert mi.solver.check_witness(solved_assignment(mi.solver))


def test_path_variant_parent_chain():
    g = path_graph(4)
    step = decide(g, 3, 2, variant=Variant.PATH)
    assert step.status is Status.SAT
    assert step.witness.parent == (0, 0, 1)
    mi = build_model(g, 3, 2, variant=Variant.PATH)
    assert mi.solver.solve(decision_vars=mi.decision_vars).status is Status.SAT
    assert mi.depths == []
    assert not any(var.name.startswith("depth") for var in solved_assignment(mi.solver))
    assert extract_decomposition(mi).parent == (0, 0, 1)


def _assert_at_fixpoint(solver):
    """Rescheduling every propagator must change no domain."""
    before = snapshot(solver)
    for prop in solver.propagators:
        solver._wake([prop])
    assert solver.propagate()
    assert snapshot(solver) == before


def test_full_model_propagation_is_idempotent():
    # Propagators wake only on the set events they subscribe to; a missed
    # event would leave a later rerun with something to prune. Checked at
    # the root and along seeded dives of branching decisions.
    mi = build_model(cycle_graph(5), m=3, w=3)
    assert mi.solver.propagate()
    _assert_at_fixpoint(mi.solver)

    rng = random.Random(23)
    checked = 0
    for n in (4, 5, 6):
        for _ in range(4):
            g = random_graph(n, 0.5, rng)
            for variant, smooth in itertools.product(Variant, (False, True)):
                for m, w in _schedule_pairs(n)[1:4]:
                    mi = build_model(g, m, w, variant=variant, smooth=smooth)
                    solver = mi.solver
                    consistent = solver.propagate()
                    while consistent:
                        _assert_at_fixpoint(solver)
                        checked += 1
                        alternatives = solver._branch(mi.decision_vars)
                        if alternatives is None:
                            break
                        operation, value = rng.choice(alternatives)
                        operation(value)
                        consistent = solver.propagate()
    assert checked > 250  # the dives are not all cut short by failures


def test_lex_toggle_preserves_outcomes_small():
    # exhaustive n <= 3; the n = 4 sweep lives in the acceptance suite
    for n in range(1, 4):
        for g in all_labeled_graphs(n):
            for m, w in _schedule_pairs(n):
                with_lex = search_model(g, m, w)
                without = search_model(g, m, w, symmetry_breaking=False)
                assert with_lex.status == without.status


def test_lex_toggle_preserves_outcomes_sampled_n5():
    rng = random.Random(61)
    for _ in range(40):
        g = random_graph(5, 0.5, rng)
        for m, w in _schedule_pairs(5):
            with_lex = search_model(g, m, w)
            without = search_model(g, m, w, symmetry_breaking=False)
            assert with_lex.status == without.status, (g.edges, m, w)


def _order_decompositions(seed):
    """Every step with w >= ub of 30 seeded random graphs, as
    ``(g, variant, m, w, the order's decomposition)``."""
    rng = random.Random(seed)
    for _ in range(30):
        g = random_graph(rng.randint(2, 7), 0.5, rng)
        for variant in Variant:
            ub, order, bags = upper_bound(g, variant)
            for w in range(ub, g.n + 1):
                yield g, variant, g.n + 1 - w, w, smooth_decomposition(variant, order, bags, w)


def test_encoding_inverts_extraction_and_dives_without_a_fail():
    # every step with w >= ub: with the node sets and parents of the
    # order's decomposition fixed, propagation fixes every other
    # variable, so the search confirms it without a decision or a fail
    # and reads back the decomposition it was given
    checked = 0
    for g, variant, m, w, given in _order_decompositions(61):
        mi = build_model(g, m, w, variant=variant, around=given)
        report = mi.solver.solve(decision_vars=mi.decision_vars, decision_limit=0)
        assert report.status is Status.SAT, (g.edges, variant, w)
        assert (report.decisions, report.fails) == (0, 0)
        assert mi.solver.check_witness(solved_assignment(mi.solver)), (g.edges, variant, w)
        assert extract_decomposition(mi) == given, (g.edges, variant, w)
        checked += 1
    assert checked > 100


def _mutants(variant, td):
    """Each decomposition one change away from td: a node without one
    of its vertices and, on a tree, a non-root node hung from a node
    other than its parent (possibly its own descendant)."""
    nodes, parent = list(td.nodes), list(td.parent)
    for i, bag in enumerate(nodes):
        for v in sorted(bag):
            yield TreeDecomposition(tuple(nodes[:i] + [bag - {v}] + nodes[i + 1 :]), td.parent)
    if variant is Variant.TREE:
        for i in range(1, td.m):
            for p in range(td.m):
                if p not in (i, parent[i]):
                    yield TreeDecomposition(td.nodes, tuple(parent[:i] + [p] + parent[i + 1 :]))


def test_a_model_built_around_what_the_validator_rejects_fails_at_the_root():
    # decide never shows the model an invalid decomposition any more, so
    # the model's own rejection is checked here: every mutant of an
    # order's decomposition that the validator rejects empties a domain
    # in the root propagation, before any decision
    rejected = 0
    for g, variant, m, w, given in _order_decompositions(67):
        for td in _mutants(variant, given):
            if not validate(g, td, expect_m=m, expect_w=w, expect_path=variant is Variant.PATH):
                continue
            mi = build_model(g, m, w, variant=variant, around=td)
            report = mi.solver.solve(decision_vars=mi.decision_vars, decision_limit=0)
            assert (report.status, report.decisions) == (Status.UNSAT, 0), (g.edges, variant, td)
            rejected += 1
    assert rejected > 1000


def test_encoding_keeps_the_nodes_as_given():
    g = path_graph(4)
    # a chain rooted at its lex-largest node, listed out of lex order
    # (LexLeq would put {2, 3} first: membership vectors, vertex 0 first)
    given = decomposition([{0, 1}, {1, 2}, {2, 3}], [0, 0, 1])
    mi = build_model(g, 3, 2, around=given)
    assert lex_count(mi) == 0
    assert [(x.required, x.possible) for x in mi.node_sets] == [
        (0b0011, 0b0011),
        (0b0110, 0b0110),
        (0b1100, 0b1100),
    ]
    assert [p.domain() for p in mi.parents] == [[0], [0], [1]]
    assert mi.solver.solve(decision_vars=mi.decision_vars, decision_limit=0).status is Status.SAT
    assert [d.value() for d in mi.depths] == [0, 1, 2]  # derived by propagation
    # on a path too, the first node stays first, although it is lex-larger than the last
    mi = build_model(g, 3, 2, variant=Variant.PATH, around=given)
    assert lex_count(mi) == 0
    report = mi.solver.solve(decision_vars=mi.decision_vars, decision_limit=0)
    assert report.status is Status.SAT
    assert extract_decomposition(mi) == given
    assert mi.solver.check_witness(solved_assignment(mi.solver))


def test_a_model_built_around_a_decomposition_of_another_node_count_is_refused():
    # node set i is fixed to node i, so a td of fewer nodes than m would
    # be read past its end, and one of more would lose the extra nodes
    # and could be confirmed: the path 0-1-2 around {0, 1, 2}, {1, 2}
    # at m = 1
    g = path_graph(3)
    pair = decomposition([{0, 1, 2}, {1, 2}], [0, 0])
    for m, w, td in [(3, 2, pair), (1, 3, pair), (2, 3, decomposition(pair.nodes, [0]))]:
        for variant in Variant:
            with pytest.raises(ValueError, match=f"around has {td.m} nodes and "):
                build_model(g, m, w, variant=variant, around=td)
    assert build_model(g, 2, 3, around=pair).solver.solve([], decision_limit=0).status is Status.SAT


def test_confirm_refuses_what_is_no_decomposition_of_the_instance():
    # the validator checks the decomposition before any model is built,
    # and a violation is the caller's error, named in the message
    g = path_graph(4)
    sound = [{0, 1}, {1, 2}, {2, 3}]
    assert decide(g, 3, 2, confirm=decomposition(sound, [0, 0, 1])).witness
    for variant in Variant:
        for bags, kind in [
            ([{0, 1}, {1, 2}, {2, 3, 4}], "COVERAGE"),  # vertex 4 is not in P4
            ([{0, 1}, {1, 2}, {-1, 3}], "COVERAGE"),
            ([{0, 1}, {1, 2, 3}, {2, 3}], "WIDTH"),  # three vertices, w = 2
            ([{0, 1}, {1, 2, 3}], "NODE_COUNT"),  # two nodes for m = 3
        ]:
            td = TreeDecomposition(tuple(map(frozenset, bags)), (0, 0, 1)[: len(bags)])
            with pytest.raises(ValueError, match=rf"\(m=3, w=2\) cannot confirm .*{kind}"):
                decide(g, 3, 2, variant=variant, confirm=td)


def test_a_path_confirmation_must_be_in_path_order():
    g = path_graph(4)
    bags = [{0, 1}, {1, 2}, {2, 3}]
    # the right node sets under a star: the validator rejects them, and
    # on a path they must hang node i from node i - 1 as given
    star = decomposition(bags, [0, 0, 0])
    with pytest.raises(ValueError, match="CONNECTEDNESS"):
        decide(g, 3, 2, confirm=star)
    # a star valid for a tree, but in no path order
    centred = decomposition([bags[1], bags[0], bags[2]], [0, 0, 0])
    assert decide(g, 3, 2, confirm=centred).witness == centred
    for td in (star, centred):
        with pytest.raises(ValueError, match="must hang node i from node i - 1"):
            decide(g, 3, 2, variant=Variant.PATH, confirm=td)
    chain = decomposition(bags, [0, 0, 1])
    assert decide(g, 3, 2, variant=Variant.PATH, confirm=chain).witness == chain


def _raises_value_error_in_time(call):
    def expire(signum, frame):
        raise TimeoutError
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        with pytest.raises(ValueError):
            call()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")
def test_encoding_a_parent_array_that_is_no_tree_raises():
    g = path_graph(4)
    for bags in ([{0, 1}, {1, 2}, {2, 3}], [{2, 3}, {0, 1}, {1, 2}]):
        # a cycle, two self-loops, a pointer past the last node and a
        # negative one: each is refused before anything is fixed
        for parent in [(0, 2, 1), (0, 1, 0), (0, 0, 2), (0, 3, 0), (0, -1, 0)]:
            td = TreeDecomposition(tuple(map(frozenset, bags)), parent)
            _raises_value_error_in_time(lambda: decide(g, 3, 2, confirm=td))
