"""Schedule driver: traces, stopping rules, limits, bounds."""

from __future__ import annotations

import gc
import math
import random
import time
import tracemalloc
import types

import pytest

from helpers import (
    all_labeled_graphs,
    complete_graph,
    cycle_graph,
    decomposition,
    draw_graph,
    edgeless_graph,
    path_graph,
    random_graph,
    search_model,
)
from test_cli import GAP_GR
from tdsolve import driver
from tdsolve.driver import (
    ScheduleInterrupted,
    ScheduleStep,
    SearchLimitExceeded,
    bounds,
    decide,
    pathwidth,
    smooth_decomposition,
    treewidth,
)
from tdsolve.engine import IntVar, SetVar, Solver, Status
from tdsolve.graphio import parse_gr
from tdsolve.graphs import Graph, TreeDecomposition
from tdsolve.model import Variant, build_model
from tdsolve.oracle import brute_pathwidth, brute_treewidth
from tdsolve.propagators import RunningIntersection
from tdsolve.validator import validate


def outcomes(result):
    return [(s.m, s.w, s.status) for s in result.trace]


def test_single_node_step_always_sat():
    for g in (path_graph(4), complete_graph(4), edgeless_graph(2)):
        step = decide(g, 1, g.n)
        assert step.status is Status.SAT
        assert step.witness.nodes == (frozenset(range(g.n)),)


def test_decide_k3_two_nodes_width_two_unsat():
    # the exact oracle: no decomposition of K3 has width under 3, at any m
    assert brute_treewidth(complete_graph(3)).width == 3
    assert decide(complete_graph(3), 2, 2).status is Status.UNSAT


def test_treewidth_p3():
    result = treewidth(path_graph(3))
    assert outcomes(result)[:2] == [(1, 3, Status.SAT), (2, 2, Status.SAT)]
    assert result.min_width == 2
    assert result.treewidth == 1


def test_treewidth_c4():
    result = treewidth(cycle_graph(4))
    assert outcomes(result) == [
        (1, 4, Status.SAT),
        (2, 3, Status.SAT),
        (3, 2, Status.UNSAT),
    ]
    assert result.min_width == 3


def test_treewidth_k4():
    result = treewidth(complete_graph(4))
    assert outcomes(result) == [(1, 4, Status.SAT), (2, 3, Status.UNSAT)]
    assert result.min_width == 4


def test_treewidth_edgeless():
    result = treewidth(edgeless_graph(3))
    assert outcomes(result) == [
        (1, 3, Status.SAT),
        (2, 2, Status.SAT),
        (3, 1, Status.SAT),
    ]
    assert result.min_width == 1
    assert result.treewidth == 0


def test_schedule_invariants():
    rng = random.Random(31)
    for _ in range(15):
        g = random_graph(rng.randint(1, 6), 0.5, rng)
        result = treewidth(g)
        seen_unsat = False
        for i, step in enumerate(result.trace):
            assert step.m + step.w == g.n + 1
            assert step.m == i + 1
            if seen_unsat:
                pytest.fail("steps continued past the first UNSAT")
            seen_unsat = step.status is Status.UNSAT
        # the last SAT witness is exactly optimal: anything narrower
        # would have kept the next step satisfiable
        assert result.witness.width == result.min_width
        assert validate(g, result.witness) == []


def test_schedule_records_hold_their_fields_in_slots():
    g = path_graph(3)
    result = treewidth(g)
    report = result.trace[0].report
    step = ScheduleStep(1, 3, report, result.witness)
    assert (step.status, step.bound, step.confirmed) == (Status.SAT, None, False)
    for record in (result, step, report, build_model(g, 2, 2)):
        assert not hasattr(record, "__dict__")
    # a step's status is its report's, on order, bound and searched steps
    gap = parse_gr(GAP_GR)
    steps = treewidth(gap).trace + pathwidth(gap).trace
    assert {(s.confirmed, s.bound is not None) for s in steps} == {
        (True, False),
        (False, True),
        (False, False),
    }
    for step in steps:
        assert step.status is step.report.status


def test_pathwidth_examples():
    assert pathwidth(path_graph(4)).min_width == 2
    assert pathwidth(cycle_graph(4)).min_width == 3
    assert pathwidth(complete_graph(3)).min_width == 3
    result = pathwidth(path_graph(4))
    assert result.pathwidth == 1
    assert result.variant is Variant.PATH


def test_each_width_is_read_only_from_its_own_schedule():
    # a spider with three legs of two edges: treewidth 1, pathwidth 2
    g = Graph.from_edges(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
    tree, path = treewidth(g), pathwidth(g)
    assert (tree.treewidth, path.pathwidth) == (1, 2)
    assert not hasattr(tree, "pathwidth") and not hasattr(path, "treewidth")
    with pytest.raises(AttributeError, match="treewidth schedule"):
        tree.pathwidth


def test_pathwidth_witness_is_a_path():
    result = pathwidth(cycle_graph(5))
    td = result.witness
    assert td.parent == tuple([0] + list(range(td.m - 1)))


def test_pathwidth_at_least_treewidth():
    rng = random.Random(13)
    for _ in range(10):
        g = random_graph(rng.randint(1, 5), 0.5, rng)
        assert pathwidth(g).min_width >= treewidth(g).min_width


def test_smooth_steps_agree_with_bare_steps():
    # m + w = n + 1 at every schedule step, where a decomposition exists
    # iff a smooth one does
    rng = random.Random(71)
    for n in range(3, 8):
        for p in (0.3, 0.5, 0.7):
            for _ in range(2):
                g = random_graph(n, p, rng)
                for variant in Variant:
                    for m, w in driver._schedule_pairs(n):
                        bare = search_model(g, m, w, variant)
                        smooth = decide(g, m, w, variant=variant)
                        assert smooth.status == bare.status, (g.edges, variant, m, w)
                        if smooth.status is Status.SAT:
                            assert {len(x) for x in smooth.witness.nodes} == {w}


def test_decide_agrees_with_the_oracle_on_and_above_the_diagonal():
    # with m + w >= n + 1, m nodes of at most w vertices exist iff w
    # reaches the minimum width: a smooth decomposition has n + 1 - w
    # nodes, and duplicate leaves pad it. Only the diagonal is smooth.
    checked = 0
    for n in range(1, 5):
        for g in all_labeled_graphs(n):
            for variant, oracle in ((Variant.TREE, brute_treewidth), (Variant.PATH, brute_pathwidth)):
                width = oracle(g).width
                for m in range(1, n + 1):
                    for w in range(n + 1 - m, n + 1):
                        step = decide(g, m, w, variant=variant)
                        assert (step.status is Status.SAT) == (w >= width), (g.edges, variant, m, w)
                        checked += 1
    assert checked == 1390


def test_monotone_in_node_count_along_schedule():
    # SAT at (m, w) stays SAT at (m+1, w): pad with a duplicate node
    for n in range(1, 5):
        for g in all_labeled_graphs(n):
            result = treewidth(g)
            for step in result.trace:
                if step.status is Status.SAT:
                    assert decide(g, step.m + 1, step.w).status is Status.SAT
    rng = random.Random(19)
    for _ in range(100):
        g = random_graph(5, 0.5, rng)
        for step in treewidth(g).trace:
            if step.status is Status.SAT:
                assert decide(g, step.m + 1, step.w).status is Status.SAT


def test_duplicate_free_witnesses_respect_node_bound():
    rng = random.Random(41)
    for _ in range(15):
        g = random_graph(rng.randint(1, 6), 0.5, rng)
        for step in treewidth(g).trace:
            if step.witness is None:
                continue
            td = step.witness
            if len(set(td.nodes)) == td.m:
                assert td.m <= g.n - td.width + 1


def test_decision_limit_gives_indeterminate():
    # the fourth G(8, 0.7) draw of random.Random(700): even the stronger
    # bounds leave step (4, 5) of its schedule to search
    rng = random.Random(700)
    g = [random_graph(8, 0.7, rng) for _ in range(4)][-1]
    lb, _, upper = bounds(g, Variant.TREE)
    assert (lb, upper[0]) == (4, 6)
    step = decide(g, 4, 5, decision_limit=1)
    assert step.status is Status.INDETERMINATE
    assert step.witness is None
    with pytest.raises(SearchLimitExceeded) as err:
        treewidth(g, decision_limit=1)
    assert err.value.step.status is Status.INDETERMINATE
    assert err.value.trace[-1] is err.value.step
    assert (err.value.lb, err.value.ub) == (4, 6)


def test_interrupt_carries_the_bounds_once_known(monkeypatch):
    g = cycle_graph(5)

    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(driver, "decide", interrupt)
    with pytest.raises(ScheduleInterrupted) as err:
        treewidth(g)
    assert (err.value.trace, err.value.lb, err.value.ub) == ([], 2, 3)
    monkeypatch.setattr(driver, "upper_bound", interrupt)
    with pytest.raises(ScheduleInterrupted) as err:
        pathwidth(g)
    assert (err.value.trace, err.value.lb, err.value.ub) == ([], None, None)


def test_confirm_rejects_a_broken_decomposition(monkeypatch):
    g = path_graph(4)
    # right sizes, but vertex 1 skips the middle node: the validator
    # names it before any model is built
    broken = decomposition([{0, 1}, {2, 3}, {1, 2}], [0, 0, 1])
    for variant in Variant:
        with pytest.raises(ValueError, match=r"\(m=3, w=2\) cannot confirm .*: CONNECTEDNESS"):
            decide(g, 3, 2, variant=variant, confirm=broken)
    sound = decomposition([{0, 1}, {1, 2}, {2, 3}], [0, 0, 1])
    step = decide(g, 3, 2, confirm=sound, decision_limit=0)
    report = step.report
    assert (step.status, step.confirmed, report.decisions, report.fails) == (Status.SAT, True, 0, 0)
    assert report.propagations > 0
    # past a validator that accepts anything, the model's rejection is a
    # disagreement between the two, an internal error
    monkeypatch.setattr(driver, "validate", lambda *args, **kwargs: [])
    for variant in Variant:
        with pytest.raises(RuntimeError, match=r"step \(m=3, w=2\): the model rejects"):
            decide(g, 3, 2, variant=variant, confirm=broken)


def test_an_order_decomposition_the_validator_rejects_is_an_internal_error(monkeypatch):
    def rejected_order(*args):
        td = smooth_decomposition(*args)
        # a vertex dropped from the last node leaves an edge or a vertex uncovered
        return TreeDecomposition(td.nodes[:-1] + (td.nodes[-1] - {max(td.nodes[-1])},), td.parent)

    monkeypatch.setattr(driver, "smooth_decomposition", rejected_order)
    for schedule in (treewidth, pathwidth):
        with pytest.raises(RuntimeError, match=r"greedy order: step \(m=1, w=4\)"):
            schedule(cycle_graph(4))


def test_a_confirmed_step_writes_the_orders_decomposition(monkeypatch):
    # node for node, as smooth_decomposition lists it. Each order step
    # validates that decomposition once and builds one model around it,
    # and reads nothing back: the validated decomposition is the witness
    calls = {}
    per_step = []

    def counted(name, original):
        def call(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(driver, name, call)

    for name in ("validate", "build_model", "extract_decomposition"):
        counted(name, getattr(driver, name))

    def one_step(*args, **kwargs):
        calls.clear()
        step = decide(*args, **kwargs)
        per_step.append(dict(calls))
        return step

    monkeypatch.setattr(driver, "decide", one_step)
    rng = random.Random(73)
    confirmed = 0
    for _ in range(30):
        g = random_graph(rng.randint(1, 7), 0.5, rng)
        for variant, schedule in ((Variant.TREE, treewidth), (Variant.PATH, pathwidth)):
            _, _, (ub, order, bags) = bounds(g, variant)
            per_step.clear()
            trace = schedule(g).trace
            assert len(per_step) == sum(step.bound is None for step in trace)
            for step, counts in zip(trace, per_step):  # a bound step comes last
                assert step.confirmed is (step.w >= ub)
                if step.confirmed:
                    assert counts == {"validate": 1, "build_model": 1}
                    assert step.witness == smooth_decomposition(variant, order, bags, step.w)
                    confirmed += 1
    assert confirmed > 100


def test_a_decided_step_leaves_no_cyclic_garbage(monkeypatch):
    # each model is a reference cycle until its step unlinks it; with
    # the collector off, whatever gc.collect() then finds was left behind
    tree17 = draw_graph(9, 907, 0.7, 17)  # searches its tree step (4, 6)
    path84 = draw_graph(9, 905, 0.5, 84)  # searches its path step (5, 5)
    broken = decomposition([{0, 1}, {2, 3}, {1, 2}], [0, 0, 1])
    gc.collect()
    gc.disable()
    try:
        treewidth(tree17)
        assert gc.collect() == 0
        pathwidth(path84)
        assert gc.collect() == 0
        with pytest.raises(SearchLimitExceeded):
            treewidth(tree17, decision_limit=10)
        assert gc.collect() == 0
        # past a validator that accepts it, the model rejects the
        # decomposition and raises, and the model is freed all the same
        monkeypatch.setattr(driver, "validate", lambda *args, **kwargs: [])
        with pytest.raises(RuntimeError, match="the model rejects"):
            decide(path_graph(4), 3, 2, confirm=broken)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_finished_result_holds_no_model():
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = treewidth(path_graph(40))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert result.min_width == 2
    # the steps' decompositions take about 0.27 MB
    assert held < 0.6e6


def test_a_deep_chain_of_confirmed_nodes_settles_in_one_call(monkeypatch):
    # every step of P60's schedule is confirmed from the greedy order,
    # whose decomposition is a chain of fixed parents as deep as it has
    # nodes. RunningIntersection settles the depths along it in its first
    # call, so each step takes at most two: the first, and one more
    # because its own changes wake it. Deriving one tree level per call
    # took 1,770 calls here in all.
    calls = 0
    propagate = RunningIntersection.propagate

    def counted(self):
        nonlocal calls
        calls += 1
        propagate(self)

    monkeypatch.setattr(RunningIntersection, "propagate", counted)
    result = treewidth(path_graph(60))
    assert result.min_width == 2
    assert all(step.confirmed for step in result.trace if step.bound is None)
    assert calls <= 2 * len(result.trace)


def _reachable(root):
    """Every object reachable from root through gc.get_referents,
    short of classes and modules."""
    seen = {id(root)}
    stack = [root]
    found = []
    while stack:
        for ref in gc.get_referents(stack.pop()):
            if id(ref) in seen or isinstance(ref, (type, types.ModuleType)):
                continue
            seen.add(id(ref))
            found.append(ref)
            stack.append(ref)
    return found


def test_a_decided_step_reaches_no_model():
    # the solved model is its own witness: decide reads the
    # decomposition out of it and keeps nothing else of it
    step = decide(path_graph(10), 9, 2)
    assert step.status is Status.SAT
    model = [obj for obj in _reachable(step) if isinstance(obj, (IntVar, SetVar, Solver))]
    assert model == []


def large_graph():
    """1,000 vertices, 5,000 edges: the stronger bounds alone would take
    longer than any timeout below."""
    rng = random.Random(7)
    edges = set()
    while len(edges) < 5000:
        u, v = sorted(rng.sample(range(1000), 2))
        edges.add((u, v))
    return Graph.from_edges(1000, edges)


def test_timeout_caps_a_large_graph():
    # the bounds stop at the deadline, step (1, 1000) passes its root
    # propagation and step (2, 999), searched with no time left, ends
    # the schedule: one timeout and two model builds in all
    g = large_graph()
    for run in (treewidth, pathwidth):
        start = time.perf_counter()
        with pytest.raises(SearchLimitExceeded) as err:
            run(g, timeout=0.5)
        assert time.perf_counter() - start < 0.8
        assert err.value.step.status is Status.INDETERMINATE


def test_timeout_caps_the_whole_schedule():
    # one deadline for the bounds, the confirmations and the searched
    # steps: a step past it is not given a fresh timeout
    g = large_graph()
    for run in (treewidth, pathwidth):
        start = time.perf_counter()
        with pytest.raises(SearchLimitExceeded) as err:
            run(g, timeout=1.0)
        assert time.perf_counter() - start < 1.3
        assert err.value.ub is not None and err.value.lb < err.value.ub


def test_timeout_leaves_a_long_search_what_the_bounds_did_not_spend():
    # draw 10 (0-based) of G(10, 0.7) from random.Random(1007): quick
    # bounds lb=4, ub=6, five steps confirmed by the order, then the gap
    # step (6, 5) searches until the deadline (some 48,000 decisions)
    rng = random.Random(1007)
    g = [random_graph(10, 0.7, rng) for _ in range(11)][-1]
    start = time.perf_counter()
    with pytest.raises(SearchLimitExceeded) as err:
        treewidth(g, timeout=1.0)
    assert time.perf_counter() - start < 1.3
    assert (err.value.lb, err.value.ub) == (4, 6)
    assert [(s.m, s.w, s.status, s.confirmed) for s in err.value.trace] == [
        *((m, 11 - m, Status.SAT, True) for m in range(1, 6)),
        (6, 5, Status.INDETERMINATE, False),
    ]
    assert err.value.step.report.decisions > 0


@pytest.mark.parametrize(
    "limits",
    [{"timeout": math.nan}, {"timeout": math.inf}, {"timeout": -1.0}, {"decision_limit": -3}],
    ids=["nan-timeout", "inf-timeout", "negative-timeout", "negative-decision-limit"],
)
def test_bad_limits_raise_before_any_work(limits, monkeypatch):
    # a NaN timeout never expires (it searched the gap step of
    # test_decision_limit_gives_indeterminate to UNSAT), and a negative
    # limit would quietly mean INDETERMINATE
    def no_work(*args, **kwargs):
        raise AssertionError("work began before the limits were checked")

    monkeypatch.setattr(driver, "build_model", no_work)
    monkeypatch.setattr(driver, "minor_min_width", no_work)
    g = cycle_graph(5)
    name = next(iter(limits))
    for call in (decide, treewidth, pathwidth):
        args = (g, 2, 4) if call is decide else (g,)
        with pytest.raises(ValueError, match=f"^{name} must be"):
            call(*args, **limits)


def test_rejects_empty_graph():
    with pytest.raises(ValueError):
        treewidth(Graph.from_edges(0, []))


def test_oracle_agreement_varied_density():
    rng = random.Random(71)
    for p in (0.2, 0.8):
        for _ in range(8):
            g = random_graph(6, p, rng)
            assert treewidth(g).min_width == brute_treewidth(g).width, (p, g.edges)


def test_oracle_agreement_with_isolated_vertices():
    # isolated vertices exercise the set-membership fallback: nothing
    # but the coverage constraint places them
    rng = random.Random(73)
    for _ in range(8):
        core = random_graph(4, 0.6, rng)
        g = type(core).from_edges(core.n + 2, list(core.edges))
        assert treewidth(g).min_width == brute_treewidth(g).width, g.edges
        assert pathwidth(g).min_width == brute_pathwidth(g).width, g.edges


def test_pathwidth_on_trees_matches_oracle():
    from helpers import random_tree

    rng = random.Random(79)
    for _ in range(10):
        g = random_tree(rng.randint(2, 7), rng)
        assert pathwidth(g).min_width == brute_pathwidth(g).width, g.edges
