"""Model construction: variable counts, posted constraints, decoding."""

from __future__ import annotations

import random

import pytest

from helpers import (
    all_labeled_graphs,
    complete_graph,
    cycle_graph,
    path_graph,
    random_graph,
    snapshot,
)
from tdsolve.driver import _schedule_pairs, decide
from tdsolve.engine import Status
from tdsolve.model import Variant, build_model, extract_decomposition
from tdsolve.propagators import LexLeq
from tdsolve.validator import validate


def lex_count(mi):
    return sum(1 for p in mi.solver.propagators if isinstance(p, LexLeq))


def test_variable_counts_k3():
    mi = build_model(complete_graph(3), m=1, w=3)
    assert len(mi.node_sets) == 1
    assert len(mi.locations) == 3  # 3 edges x 1 node
    assert len(mi.solver.set_vars) == 1
    assert lex_count(mi) == 0


def test_variable_counts_c4():
    mi = build_model(cycle_graph(4), m=3, w=2)
    assert len(mi.node_sets) == 3
    assert len(mi.locations) == 12  # 4 edges x 3 nodes
    assert len(mi.solver.set_vars) == 3
    assert lex_count(mi) == 2


@pytest.mark.parametrize("m", [1, 2, 4])
def test_size_formulas(m):
    g = random_graph(5, 0.5, random.Random(m))
    mi = build_model(g, m=m, w=3)
    assert len(mi.node_sets) == m
    assert len(mi.locations) == g.edge_count * m
    assert len(mi.solver.set_vars) == m
    assert lex_count(mi) == m - 1
    # per node: cardinality; per child node: parent-depth, running
    # intersection, lex; per edge: one location per node plus at-least-one;
    # and the union
    assert len(mi.solver.propagators) == m + 3 * (m - 1) + g.edge_count * (m + 1) + 1
    assert mi.decision_vars == mi.parents + mi.locations


def test_path_variant_lex_is_reversal_only():
    g = path_graph(4)
    mi = build_model(g, m=3, w=2, variant=Variant.PATH)
    assert lex_count(mi) == 1


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
    td = extract_decomposition(mi, report.witness)
    assert td.nodes == (frozenset({0, 1, 2}),)
    assert td.parent == (0,)
    assert td.depth == (0,)
    assert td.width == 3


def test_extract_p3_two_nodes():
    g = path_graph(3)
    mi = build_model(g, m=2, w=2)
    report = mi.solver.solve(decision_vars=mi.decision_vars)
    assert report.status is Status.SAT
    td = extract_decomposition(mi, report.witness)
    assert validate(g, td, expect_m=2, expect_w=2) == []
    assert 1 in td.nodes[0] and 1 in td.nodes[1]  # shared middle vertex


def test_extract_missing_variable_is_internal_error():
    mi = build_model(path_graph(2), m=1, w=2)
    with pytest.raises(RuntimeError):
        extract_decomposition(mi, {})


def test_every_witness_validates():
    rng = random.Random(5)
    for _ in range(20):
        g = random_graph(rng.randint(2, 5), 0.5, rng)
        pairs = _schedule_pairs(g.n)
        m, w = pairs[rng.randrange(len(pairs))]
        step = decide(g, m, w)
        if step.status is Status.SAT:
            assert validate(g, step.witness, expect_m=m, expect_w=w) == []


def test_witness_passes_straight_line_constraint_audit():
    rng = random.Random(29)
    for _ in range(10):
        g = random_graph(rng.randint(2, 5), 0.5, rng)
        mi = build_model(g, m=min(3, g.n), w=max(2, g.n - 1))
        report = mi.solver.solve(decision_vars=mi.decision_vars)
        assert report.status is Status.SAT
        assert mi.solver.check_witness(report.witness)


def test_path_variant_parent_chain():
    g = path_graph(4)
    step = decide(g, 3, 2, variant=Variant.PATH)
    assert step.status is Status.SAT
    assert step.witness.parent == (0, 0, 1)
    assert step.witness.depth == (0, 1, 2)


def _assert_at_fixpoint(solver):
    """Rescheduling every propagator must change no domain."""
    before = snapshot(solver)
    for prop in solver.propagators:
        solver._schedule(prop)
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
            for variant in Variant:
                for m, w in _schedule_pairs(n)[1:4]:
                    mi = build_model(g, m, w, variant=variant)
                    solver = mi.solver
                    consistent = solver.propagate()
                    while consistent:
                        _assert_at_fixpoint(solver)
                        checked += 1
                        alternatives = solver._branch(mi.decision_vars)
                        if alternatives is None:
                            break
                        solver._apply(rng.choice(alternatives))
                        consistent = solver.propagate()
    assert checked > 250  # the dives are not all cut short by failures


def test_lex_toggle_preserves_outcomes_small():
    # exhaustive n <= 3; the n = 4 sweep lives in the acceptance suite
    for n in range(1, 4):
        for g in all_labeled_graphs(n):
            for m, w in _schedule_pairs(n):
                with_lex = decide(g, m, w, symmetry_breaking=True)
                without = decide(g, m, w, symmetry_breaking=False)
                assert with_lex.status == without.status


def test_lex_toggle_preserves_outcomes_sampled_n5():
    rng = random.Random(61)
    for _ in range(40):
        g = random_graph(5, 0.5, rng)
        for m, w in _schedule_pairs(5):
            with_lex = decide(g, m, w, symmetry_breaking=True)
            without = decide(g, m, w, symmetry_breaking=False)
            assert with_lex.status == without.status, (g.edges, m, w)
