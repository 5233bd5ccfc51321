"""Minor-min-width lower bound: its certificate checker, and agreement
with the oracle and with the model's own UNSAT proofs. Greedy upper
bound: its m-node decompositions, checked by the validator and
confirmed by the model at every schedule step they cover. The stronger
bounds that ``bounds`` tries while a gap remains: the least-c minor,
min-fill elimination and the placement from every start vertex."""

from __future__ import annotations

import random

from helpers import (
    all_labeled_graphs,
    complete_graph,
    cycle_graph,
    edgeless_graph,
    path_graph,
    random_graph,
    star_graph,
)
from tdsolve.driver import (
    _contraction_bound,
    _elimination_order,
    _greedy_path_order,
    bounds,
    decide,
    minor_min_width,
    pathwidth,
    smooth_decomposition,
    treewidth,
    upper_bound,
)
from tdsolve.engine import Status
from tdsolve.graphs import Graph
from tdsolve.model import Variant
from tdsolve.oracle import brute_pathwidth, brute_treewidth
from tdsolve.validator import ViolationKind, check_minor_bound, validate


def kinds(violations):
    return {v.kind for v in violations}


def _neighbours(g, sets, i):
    return {j for j, bs in enumerate(sets) if j != i and any(g.adjacency[v] & bs for v in sets[i])}


def test_known_families():
    assert minor_min_width(complete_graph(5)) == (4, tuple(frozenset({v}) for v in range(5)))
    assert minor_min_width(cycle_graph(6))[0] == 2
    assert minor_min_width(path_graph(3))[0] == 1
    assert minor_min_width(star_graph(4))[0] == 1
    assert minor_min_width(edgeless_graph(3)) == (0, tuple(frozenset({v}) for v in range(3)))


def _bound_corpus():
    """Every labeled graph with n <= 5, and 40 G(6, 1/2) / G(7, 1/2) graphs."""
    rng = random.Random(83)
    graphs = [g for n in range(1, 6) for g in all_labeled_graphs(n)]
    return graphs + [random_graph(6 + i % 2, 0.5, rng) for i in range(40)]


def test_bound_agrees_with_oracle_and_search():
    # a schedule reaches w <= lb only at its step (n + 1 - lb, lb)
    decided = 0
    for g in _bound_corpus():
        lb, minor = minor_min_width(g)
        assert lb <= brute_treewidth(g).width - 1, g.edges
        assert check_minor_bound(g, minor, lb) == [], g.edges
        if lb == 0:
            continue
        for variant in Variant:
            step = decide(g, g.n + 1 - lb, lb, variant=variant)
            assert step.status is Status.UNSAT, (g.edges, variant, lb)
            decided += 1
    assert decided > 2000


def test_upper_bound_agrees_with_search():
    # the first step the order covers, (n + 1 - ub, ub), searched as a
    # gap step is, on the smooth model and with nothing to confirm
    searched = 0
    for g in _bound_corpus():
        for variant in Variant:
            ub = upper_bound(g, variant)[0]
            step = decide(g, g.n + 1 - ub, ub, variant=variant, smooth=True)
            assert step.status is Status.SAT, (g.edges, variant, ub)
            assert not step.confirmed
            searched += 1
    assert searched > 2000


def test_schedule_step_decided_by_bound():
    g = cycle_graph(5)
    lb, minor = minor_min_width(g)
    for run in (treewidth, pathwidth):
        trace = run(g).trace
        assert all(step.bound is None for step in trace[:-1])
        last = trace[-1]
        assert (last.m, last.w, last.status, last.witness) == (4, lb, Status.UNSAT, None)
        assert last.bound == minor
        report = last.report
        assert (report.decisions, report.propagations, report.fails) == (0, 0, 0)


def test_upper_bound_gives_a_decomposition_of_every_node_count_it_covers():
    # every labeled graph with n <= 5, and 40 G(6, 1/2) / G(7, 1/2) graphs
    rng = random.Random(97)
    graphs = [g for n in range(1, 6) for g in all_labeled_graphs(n)]
    graphs += [random_graph(6 + i % 2, 0.5, rng) for i in range(40)]
    checked = 0
    for g in graphs:
        for variant, brute in ((Variant.TREE, brute_treewidth), (Variant.PATH, brute_pathwidth)):
            ub, order, bags = upper_bound(g, variant)
            assert sorted(order) == list(range(g.n))
            assert ub >= brute(g).width, (g.edges, variant)
            for w in range(ub, g.n + 1):
                td = smooth_decomposition(variant, order, bags, w)
                violations = validate(
                    g, td, expect_m=g.n + 1 - w, expect_w=w, expect_path=variant is Variant.PATH
                )
                assert violations == [], (g.edges, variant, w, violations)
                checked += 1
    assert checked > 5000


def test_upper_bound_known_families_and_deadline():
    assert upper_bound(path_graph(5), Variant.PATH)[0] == 2
    assert upper_bound(cycle_graph(6), Variant.TREE)[0] == 3
    assert upper_bound(complete_graph(4), Variant.TREE)[:2] == (4, [0, 1, 2, 3])
    assert upper_bound(edgeless_graph(3), Variant.PATH)[0] == 1
    assert upper_bound(star_graph(4), Variant.PATH)[1][0] == 1  # a minimum-degree start
    for variant in Variant:
        assert upper_bound(cycle_graph(6), variant, deadline=0.0) is None


def test_schedule_dives_at_every_step_the_upper_bound_covers():
    rng = random.Random(101)
    for _ in range(20):
        g = random_graph(rng.choice((5, 6, 7)), 0.5, rng)
        for run, variant in ((treewidth, Variant.TREE), (pathwidth, Variant.PATH)):
            ub = upper_bound(g, variant)[0]
            for step in run(g).trace:
                report = step.report
                if step.w >= ub:
                    assert (step.status, report.decisions, report.fails) == (Status.SAT, 0, 0)
                assert step.confirmed is (step.w >= ub)


def test_checker_rejects_a_disconnected_branch_set():
    # K4 on 0..3 plus an isolated vertex 4 glued into the first set
    g = Graph.from_edges(5, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    sets = [{0, 1}, {2}, {3}]
    assert check_minor_bound(g, sets, 2) == []
    violations = check_minor_bound(g, [{0, 4}, {1}, {2}, {3}], 3)
    assert kinds(violations) == {ViolationKind.BRANCH_SET}
    assert "not connected" in violations[0].detail


def test_checker_rejects_mutated_certificates():
    rng = random.Random(89)
    mutated = 0
    for _ in range(30):
        g = random_graph(7, 0.6, rng)
        lb, minor = minor_min_width(g)
        sets = [set(bs) for bs in minor]
        assert check_minor_bound(g, sets, lb) == []
        assert ViolationKind.MINOR_DEGREE in kinds(check_minor_bound(g, sets, lb + 1))
        if lb < 1 or len(sets) < 2:
            continue
        overlapping = [set(bs) for bs in sets]
        overlapping[0].add(min(sets[1]))
        assert ViolationKind.BRANCH_SET in kinds(check_minor_bound(g, overlapping, lb))
        # drop a neighbour of a set that has exactly lb of them
        tight = next(i for i in range(len(sets)) if len(_neighbours(g, sets, i)) == lb)
        dropped = min(_neighbours(g, sets, tight))
        rest = sets[:dropped] + sets[dropped + 1 :]
        assert ViolationKind.MINOR_DEGREE in kinds(check_minor_bound(g, rest, lb))
        mutated += 1
    assert mutated > 20


def test_checker_rejects_malformed_sets():
    g = path_graph(3)
    assert check_minor_bound(g, [], 0) == []
    assert kinds(check_minor_bound(g, [], 1)) == {ViolationKind.MINOR_DEGREE}
    assert ViolationKind.BRANCH_SET in kinds(check_minor_bound(g, [{0}, set()], 0))
    assert ViolationKind.BRANCH_SET in kinds(check_minor_bound(g, [{0}, {7}], 0))


def test_stronger_bounds_decide_the_g9_gap_steps():
    # draws 4 and 5 of this G(9, 1/2) stream: the min-degree pair leaves
    # a 30k-decision SAT step (w = 5) and a 3.38M-decision UNSAT step
    # (w = 5) to search; min-fill and least-c decide both without search
    rng = random.Random(1009)
    draws = [random_graph(9, 0.5, rng) for _ in range(5)]
    for g, width in ((draws[3], 5), (draws[4], 6)):
        assert upper_bound(g, Variant.TREE)[0] - minor_min_width(g)[0] == 2
        result = treewidth(g)
        assert result.min_width == width
        assert result.ub - result.lb == 1
        assert sum(step.report.decisions for step in result.trace) == 0
    last = result.trace[-1]
    assert (last.m, last.w, last.status) == (5, 5, Status.UNSAT)
    assert last.bound is not None


def test_stronger_bounds_are_sound_and_never_weaker():
    # every labeled graph with n <= 5, 24 seeded G(6-8, p) graphs, and
    # the first 20 seeded G(8, p) graphs whose cheap pair leaves a gap
    rng = random.Random(1013)
    graphs = [g for n in range(1, 6) for g in all_labeled_graphs(n)]
    graphs += [random_graph(6 + i % 3, (0.3, 0.5, 0.7)[i // 3 % 3], rng) for i in range(24)]
    gaps = []
    while len(gaps) < 20:
        g = random_graph(8, rng.choice((0.3, 0.5, 0.7)), rng)
        if any(upper_bound(g, v)[0] - minor_min_width(g)[0] >= 2 for v in Variant):
            gaps.append(g)
    graphs += gaps
    checked = improved = 0
    for g in graphs:
        width = {Variant.TREE: brute_treewidth(g).width, Variant.PATH: brute_pathwidth(g).width}
        lb, minor = _contraction_bound(g, True, None)
        assert lb < width[Variant.TREE], g.edges
        assert check_minor_bound(g, minor, lb) == [], g.edges
        orders = [(Variant.TREE, _elimination_order(g, None, min_fill=True))]
        orders += [(Variant.PATH, _greedy_path_order(g, None, start)) for start in range(g.n)]
        for variant, (order, bags) in orders:
            ub = max(b.bit_count() for b in bags)
            assert sorted(order) == list(range(g.n))
            assert ub >= width[variant], (g.edges, variant, order)
            for w in range(ub, g.n + 1):
                td = smooth_decomposition(variant, order, bags, w)
                violations = validate(
                    g, td, expect_m=g.n + 1 - w, expect_w=w, expect_path=variant is Variant.PATH
                )
                assert violations == [], (g.edges, variant, order, w, violations)
                checked += 1
        for variant in Variant:
            cheap = minor_min_width(g), upper_bound(g, variant)
            lb, minor, upper = bounds(g, variant)
            assert cheap[0][0] <= lb < width[variant] <= upper[0] <= cheap[1][0]
            if (lb, upper[0]) == (cheap[0][0], cheap[1][0]):
                # nothing strictly better: the cheap certificate and order
                assert ((lb, minor), upper) == cheap
            else:
                improved += 1
    assert checked > 20000
    assert improved > 10


def test_bounds_stop_at_the_deadline():
    g = cycle_graph(6)
    for variant in Variant:
        assert bounds(g, variant, deadline=0.0) == (*minor_min_width(g), None)
    assert _contraction_bound(g, True, 0.0) is None
    assert _elimination_order(g, 0.0, min_fill=True) is None


def test_checker_rejects_altered_least_c_certificates():
    rng = random.Random(1019)
    altered = 0
    for _ in range(30):
        g = random_graph(8, rng.choice((0.5, 0.7)), rng)
        lb, minor = _contraction_bound(g, True, None)
        sets = [set(bs) for bs in minor]
        assert check_minor_bound(g, sets, lb) == []
        if lb < 1:
            continue
        for i in range(len(sets)):
            # take a vertex of another set
            other = min(sets[i - 1])
            overlapping = sets[:i] + [sets[i] | {other}] + sets[i + 1 :]
            assert ViolationKind.BRANCH_SET in kinds(check_minor_bound(g, overlapping, lb))
            altered += 1
            neighbours = _neighbours(g, sets, i)
            if len(neighbours) != lb:
                continue
            # a set with exactly lb neighbour sets loses its edges to one
            lost = sets[min(neighbours)]
            stripped = {v for v in sets[i] if not g.adjacency[v] & lost}
            assert check_minor_bound(g, sets[:i] + [stripped] + sets[i + 1 :], lb) != []
            altered += 1
    assert altered > 100
