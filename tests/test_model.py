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
from tdsolve.driver import _schedule_pairs, decide, smooth_decomposition, upper_bound
from tdsolve.engine import SetVar, Status, bits_of
from tdsolve.graphs import TreeDecomposition
from tdsolve.model import Variant, build_model, encode_decomposition, extract_decomposition
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
    # per node: cardinality; per child node: running intersection, lex;
    # per edge: one location per node plus at-least-one; and the union
    assert len(mi.solver.propagators) == m + 2 * (m - 1) + g.edge_count * (m + 1) + 1
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


def _model_depths(step):
    """The values of a SAT step's depth variables, by node index."""
    by_name = {var.name: value for var, value in step.report.witness.items()}
    return [by_name[f"depth{i}"] for i in range(step.m)]


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
            step = decide(g, m, w)
            if step.status is not Status.SAT:
                break
            assert validate(g, step.witness, expect_m=m, expect_w=w) == []
            # the model's depths are the hop counts of the extracted tree
            depths = [_hops_to_root(step.witness.parent, i) for i in range(m)]
            assert _model_depths(step) == depths
            deepest = max(deepest, *depths)
    assert deepest >= 3


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
    assert _model_depths(step) == [0, 1, 2]


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


def _as_witness(values):
    return {
        var: frozenset(bits_of(v)) if isinstance(var, SetVar) else v for var, v in values.items()
    }


def test_encoding_inverts_extraction_and_dives_without_a_fail():
    # every step with w >= ub: the encoded decomposition satisfies every
    # posted constraint, so the hinted search follows it to the end
    rng = random.Random(61)
    graphs = [random_graph(rng.randint(2, 7), 0.5, rng) for _ in range(30)]
    checked = 0
    for g in graphs:
        for variant in Variant:
            ub, order, bags = upper_bound(g, variant)
            for w in range(ub, g.n + 1):
                m = g.n + 1 - w
                mi = build_model(g, m, w, variant=variant)
                values = encode_decomposition(mi, smooth_decomposition(variant, order, bags, w))
                every_var = set(mi.solver.int_vars) | set(mi.solver.set_vars)
                assert set(values) == every_var - set(mi.depths)
                hinted = _as_witness(values)
                td = extract_decomposition(mi, hinted)
                is_path = variant is Variant.PATH
                assert validate(g, td, expect_m=m, expect_w=w, expect_path=is_path) == []
                report = mi.solver.solve(decision_vars=mi.decision_vars, hint=values)
                assert (report.status, report.fails) == (Status.SAT, 0)
                assert {var: report.witness[var] for var in hinted} == hinted
                assert mi.solver.check_witness(report.witness), (g.edges, variant, w)
                checked += 1
    assert checked > 100


def test_encoding_orders_nodes_for_symmetry_breaking():
    g = path_graph(4)
    # a tree rooted at its lex-largest node, listed out of order
    tree = TreeDecomposition.from_parents([{0, 1}, {2, 3}, {1, 2}], [0, 2, 0])
    mi = build_model(g, 3, 2)
    values = encode_decomposition(mi, tree)
    assert [values[x] for x in mi.node_sets] == [0b1100, 0b0110, 0b0011]
    assert [values[p] for p in mi.parents] == [0, 0, 1]
    assert not set(mi.depths) & set(values)
    # a path whose first node is lex-larger than its last is reversed
    path = TreeDecomposition.from_parents([{0, 1}, {1, 2}, {2, 3}], [0, 0, 1])
    mi = build_model(g, 3, 2, variant=Variant.PATH)
    values = encode_decomposition(mi, path)
    assert [values[x] for x in mi.node_sets] == [0b1100, 0b0110, 0b0011]
    assert mi.solver.check_witness(_as_witness(values) | dict(zip(mi.depths, range(3))))
    with pytest.raises(ValueError):
        encode_decomposition(build_model(g, 2, 3), path)


def test_hint_changes_no_answer_and_no_unsat_search():
    rng = random.Random(67)
    unsat = 0
    for _ in range(12):
        g = random_graph(rng.randint(4, 6), 0.5, rng)
        for variant in Variant:
            for m, w in _schedule_pairs(g.n)[1:]:
                plain = decide(g, m, w, variant=variant)
                # a wrong hint: every node holds the same two vertices
                wrong = TreeDecomposition.from_parents([{0, 1}] * m, [0] + list(range(m - 1)))
                hinted = decide(g, m, w, variant=variant, hint=wrong)
                assert hinted.status is plain.status
                if plain.status is Status.UNSAT:
                    assert (hinted.report.decisions, hinted.report.fails) == (
                        plain.report.decisions,
                        plain.report.fails,
                    )
                    unsat += 1
                    break
                is_path = variant is Variant.PATH
                assert validate(g, hinted.witness, m, w, expect_path=is_path) == []
    assert unsat > 10
