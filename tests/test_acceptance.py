"""Acceptance suite.

One test per acceptance criterion, in order, each printing a summary
line (visible under ``pytest -s`` or on failure). All comparisons
against the subset-DP oracles are exact integer equality. Witnesses
produced along the way feed the proposition check (criterion 6) and the
mutation suite (criterion 7).
"""

from __future__ import annotations

import random
import time

import pytest

from helpers import (
    all_labeled_graphs,
    complete_graph,
    cycle_graph,
    draw_graph,
    edgeless_graph,
    random_connected_graph,
    random_constraint_instance,
    random_graph,
    random_tree,
    assignment_within_bounds,
    search_without_lex,
    snapshot,
    solutions_within,
)
from tdsolve.driver import _schedule_pairs, decide, pathwidth, treewidth
from tdsolve.engine import Status
from tdsolve.graphio import parse_td, write_td
from tdsolve.graphs import Graph, TreeDecomposition
from tdsolve.oracle import brute_pathwidth, brute_treewidth
from tdsolve.validator import ViolationKind, validate

# (graph, decomposition) pairs accumulated by criteria 1-5, keyed use in 6, 7, 10.
WITNESSES: list[tuple[Graph, TreeDecomposition]] = []


def _record(g: Graph, result) -> None:
    for step in result.trace:
        if step.witness is not None:
            td = step.witness
            assert validate(g, td) == [], "a solver witness failed validation"
            if len(set(td.nodes)) == td.m:  # criterion 6, checked as produced
                assert td.m <= g.n - td.width + 1
            WITNESSES.append((g, td))


def _corpus() -> list[tuple[Graph, TreeDecomposition]]:
    """Witness corpus; regenerated if the earlier criteria did not run."""
    if len(WITNESSES) < 30:
        rng = random.Random(606)
        for n in range(1, 5):
            for g in all_labeled_graphs(n):
                _record(g, treewidth(g))
        for _ in range(20):
            g = random_graph(5, 0.5, rng)
            _record(g, treewidth(g))
    return WITNESSES


def test_criterion_1_oracle_equivalence_exhaustive():
    start = time.perf_counter()
    count = 0
    for n in range(1, 6):
        for g in all_labeled_graphs(n):
            result = treewidth(g)
            expected = brute_treewidth(g).width
            assert result.min_width == expected, (g.edges, result.min_width, expected)
            _record(g, result)
            count += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 600
    print(f"criterion 1 PASS: {count} graphs (n<=5) match the oracle exactly, {elapsed:.0f}s")


def test_criterion_2_oracle_equivalence_sampled():
    start = time.perf_counter()
    rng = random.Random(20240601)
    for n in (6, 7):
        for _ in range(50):
            g = random_graph(n, 0.5, rng)
            result = treewidth(g)
            expected = brute_treewidth(g).width
            assert result.min_width == expected, (g.edges, result.min_width, expected)
            _record(g, result)
    elapsed = time.perf_counter() - start
    assert elapsed < 1800
    print(f"criterion 2 PASS: 100 sampled graphs (n=6,7) match the oracle, {elapsed:.0f}s")


def test_criterion_3_pathwidth_equivalence():
    count = 0
    for n in range(1, 6):
        for g in all_labeled_graphs(n):
            assert pathwidth(g).min_width == brute_pathwidth(g).width, g.edges
            count += 1
    rng = random.Random(333)
    for _ in range(25):
        g = random_graph(6, 0.5, rng)
        assert pathwidth(g).min_width == brute_pathwidth(g).width, g.edges
        count += 1
    print(f"criterion 3 PASS: pathwidth matches the subset oracle on {count} graphs")


# Seeded G(9, p) draws (0-based) whose schedules each search a gap step,
# lb < w < ub: answers that no bound or greedy order settles. Each draw
# maps to its searched step (m, w, status, decisions, fails).
N9_GAP_GRAPHS = [
    pytest.param(solve, brute, seed, p, index, step, id=f"{solve.__name__}-{seed}-{index}")
    for solve, brute, seed, p, steps in (
        (
            treewidth,
            brute_treewidth,
            907,
            0.7,
            {
                17: (4, 6, "UNSAT", 3070, 1536),
                64: (4, 6, "UNSAT", 4492, 2247),
                72: (4, 6, "UNSAT", 2510, 1256),
                95: (4, 6, "UNSAT", 2142, 1072),
                99: (4, 6, "UNSAT", 2772, 1387),
            },
        ),
        (
            pathwidth,
            brute_pathwidth,
            903,
            0.3,
            {
                14: (8, 2, "UNSAT", 608, 305),
                73: (7, 3, "UNSAT", 1136, 569),
                92: (8, 2, "UNSAT", 948, 475),
            },
        ),
        (
            pathwidth,
            brute_pathwidth,
            905,
            0.5,
            {
                48: (4, 6, "UNSAT", 478, 240),
                81: (6, 4, "UNSAT", 1378, 690),
                84: (5, 5, "UNSAT", 740, 371),
            },
        ),
    )
    for index, step in steps.items()
]


def _assert_one_searched_step(solve, brute, g, step):
    """The schedule's answer matches the oracle, its witness validates,
    and it searched exactly ``step`` = (m, w, status, decisions, fails)."""
    result = solve(g)
    assert result.min_width == brute(g).width, g.edges
    assert validate(g, result.witness, expect_w=result.min_width) == []
    searched = [
        (s.m, s.w, s.status.value, s.report.decisions, s.report.fails)
        for s in result.trace
        if s.bound is None and not s.confirmed
    ]
    assert searched == [step]


@pytest.mark.parametrize("solve, brute, seed, p, index, step", N9_GAP_GRAPHS)
def test_searched_gap_steps_at_n9_match_the_oracle(solve, brute, seed, p, index, step):
    _assert_one_searched_step(solve, brute, draw_graph(9, seed, p, index), step)


# Seeded G(10, p) draws (0-based) whose gap steps are searched: one tree
# and two path graphs, with their searched step as above.
N10_GAP_GRAPHS = [
    pytest.param(solve, brute, seed, p, index, step, id=f"{solve.__name__}-{seed}-{index}")
    for solve, brute, seed, p, index, step in (
        (treewidth, brute_treewidth, 1007, 0.7, 22, (4, 7, "UNSAT", 7853, 3928)),
        (pathwidth, brute_pathwidth, 1003, 0.3, 16, (8, 3, "UNSAT", 6908, 3455)),
        (pathwidth, brute_pathwidth, 1003, 0.3, 29, (7, 4, "UNSAT", 8576, 4289)),
    )
]


@pytest.mark.parametrize("solve, brute, seed, p, index, step", N10_GAP_GRAPHS)
def test_searched_gap_steps_at_n10_match_the_oracle(solve, brute, seed, p, index, step):
    _assert_one_searched_step(solve, brute, draw_graph(10, seed, p, index), step)


def test_criterion_4_known_families():
    for k in range(1, 7):
        result = treewidth(complete_graph(k))
        assert result.min_width == k, f"K{k}"
        _record(complete_graph(k), result)
    for k in range(4, 8):
        result = treewidth(cycle_graph(k))
        assert result.min_width == 3, f"C{k}"
        _record(cycle_graph(k), result)
    rng = random.Random(77)
    for _ in range(20):
        n = rng.randint(2, 8)
        g = random_tree(n, rng)
        result = treewidth(g)
        assert result.min_width == 2, (n, g.edges)
        step = result.trace[n - 2]
        assert (step.m, step.w) == (n - 1, 2)
        assert step.status is Status.SAT and step.witness.m == n - 1
        _record(g, result)
    for n in (1, 3, 5):
        assert treewidth(edgeless_graph(n)).min_width == 1
    print("criterion 4 PASS: cliques, cycles, 20 random trees, edgeless graphs")


def test_criterion_4_edgeless_graph_on_cli(tmp_path, capsys):
    from tdsolve.cli import main

    f = tmp_path / "edgeless.gr"
    f.write_text("p tw 4 0\n")
    assert main(["treewidth", str(f)]) == 0
    assert "min_width=1" in capsys.readouterr().out


def test_criterion_5_eight_vertex_schedules_within_cap():
    rng = random.Random(1337)
    times = []
    for _ in range(10):
        g = random_connected_graph(8, 13, rng)
        start = time.perf_counter()
        result = treewidth(g)
        elapsed = time.perf_counter() - start
        assert elapsed < 120, f"schedule took {elapsed:.0f}s on edges {g.edges}"
        _record(g, result)
        times.append(elapsed)
    print(
        "criterion 5 PASS: 10 graphs (n=8, 13 edges) finished; "
        f"slowest {max(times):.1f}s, total {sum(times):.0f}s"
    )


def test_criterion_6_node_bound_proposition():
    corpus = _corpus()
    checked = 0
    for g, td in corpus:
        if len(set(td.nodes)) == td.m:
            assert td.m <= g.n - td.width + 1, (g.edges, td)
            checked += 1
    assert checked >= 30
    print(f"criterion 6 PASS: node-count bound holds on {checked} duplicate-free witnesses")


# ---------------------------------------------------------------------------
# Criterion 7: mutation sensitivity, with ground truth established by an
# independent property checker (path formulation, no code shared with the
# validator's traversal).


def _tree_path(td: TreeDecomposition, i: int, k: int) -> list[int]:
    up_i = [i]
    while up_i[-1] != 0:
        up_i.append(td.parent[up_i[-1]])
    up_k = [k]
    while up_k[-1] != 0:
        up_k.append(td.parent[up_k[-1]])
    on_i = set(up_i)
    lca = next(x for x in up_k if x in on_i)
    return up_i[: up_i.index(lca) + 1] + list(reversed(up_k[: up_k.index(lca)]))


def _independently_valid(g: Graph, td: TreeDecomposition) -> bool:
    m = td.m
    if td.parent[0] != 0:
        return False
    for i in range(1, m):
        p = td.parent[i]
        if not (0 <= p < m) or p == i:
            return False
    for i in range(m):
        j, hops = i, 0
        while j != 0:
            j = td.parent[j]
            hops += 1
            if hops > m:
                return False
    if any(not (0 <= v < g.n) for bag in td.nodes for v in bag):
        return False
    if frozenset().union(*td.nodes) != frozenset(range(g.n)):
        return False
    for u, v in g.edges:
        if not any(u in bag and v in bag for bag in td.nodes):
            return False
    for i in range(m):
        for k in range(i + 1, m):
            shared = td.nodes[i] & td.nodes[k]
            if not shared:
                continue
            for j in _tree_path(td, i, k)[1:-1]:
                if not shared <= td.nodes[j]:
                    return False
    return True


def _descendants(td: TreeDecomposition, i: int) -> set[int]:
    down = {i}
    changed = True
    while changed:
        changed = False
        for j in range(1, td.m):
            if td.parent[j] in down and j not in down:
                down.add(j)
                changed = True
    return down


def _drop_vertex_mutants(td):
    for i in range(td.m):
        for v in sorted(td.nodes[i]):
            nodes = list(td.nodes)
            nodes[i] = nodes[i] - {v}
            yield TreeDecomposition(tuple(nodes), td.parent)


def _reparent_mutants(td):
    for i in range(1, td.m):
        blocked = _descendants(td, i)
        for j in range(td.m):
            if j == td.parent[i] or j in blocked:
                continue
            parent = list(td.parent)
            parent[i] = j
            yield TreeDecomposition.from_parents(td.nodes, parent)


def _drop_leaf_mutants(td):
    children = [0] * td.m
    for i in range(1, td.m):
        children[td.parent[i]] += 1
    for leaf in range(1, td.m):
        if children[leaf]:
            continue
        nodes = [bag for i, bag in enumerate(td.nodes) if i != leaf]
        parent = [p - (p > leaf) for i, p in enumerate(td.parent) if i != leaf]
        yield TreeDecomposition.from_parents(nodes, parent)


def test_criterion_7_validator_mutation_suite():
    corpus = [(g, td) for g, td in _corpus() if g.n >= 2]
    assert len(corpus) >= 30
    expected_kinds = {
        "drop_vertex": {ViolationKind.COVERAGE, ViolationKind.EDGE, ViolationKind.CONNECTEDNESS},
        "reparent": {ViolationKind.CONNECTEDNESS},
        "drop_leaf": {ViolationKind.COVERAGE, ViolationKind.EDGE, ViolationKind.CONNECTEDNESS},
    }
    breaking = {name: 0 for name in expected_kinds}
    mutants_checked = 0
    for g, td in corpus:
        for name, generate in (
            ("drop_vertex", _drop_vertex_mutants),
            ("reparent", _reparent_mutants),
            ("drop_leaf", _drop_leaf_mutants),
        ):
            for mutant in generate(td):
                violations = validate(g, mutant)
                mutants_checked += 1
                if _independently_valid(g, mutant):
                    assert violations == [], "validator flagged a valid decomposition"
                else:
                    assert violations, "validator missed an invalid mutant"
                    assert {v.kind for v in violations} & expected_kinds[name], (
                        name,
                        violations,
                    )
                    breaking[name] += 1
    assert all(count > 0 for count in breaking.values()), breaking
    print(
        f"criterion 7 PASS: {mutants_checked} mutants over {len(corpus)} decompositions, "
        f"breaking per class {breaking}, 100% detection"
    )


def test_criterion_8_symmetry_breaking_soundness():
    decisions_with = 0
    decisions_without = 0
    for n in range(1, 5):
        for g in all_labeled_graphs(n):
            for m, w in _schedule_pairs(n):
                a = decide(g, m, w)
                b = search_without_lex(g, m, w)
                assert a.status == b.status, (g.edges, m, w)
                if n == 4:
                    decisions_with += a.report.decisions
                    decisions_without += b.decisions
    assert decisions_with <= decisions_without
    print(
        "criterion 8 PASS: outcomes identical with/without lex on all n<=4; "
        f"n=4 sweep decisions {decisions_with} (lex) vs {decisions_without} (none)"
    )


def test_criterion_9_engine_property_suite():
    # propagator filtering vs generate-and-test on micro-domains
    rng = random.Random(909)
    instances = 0
    for _ in range(1200):
        s = random_constraint_instance(rng)
        ints, sets = snapshot(s)
        solutions = solutions_within(s, ints, sets)
        if not s.propagate():
            assert solutions == [], "a satisfiable instance was failed"
        else:
            for sol in solutions:
                assert assignment_within_bounds(s, sol), "supported value removed"
            before = snapshot(s)
            for prop in s.propagators:
                s._wake([prop])
            assert s.propagate() and snapshot(s) == before, "fixpoint not idempotent"
        instances += 1

    # trail restoration fuzzing
    sequences = 0
    for _ in range(10000):
        s = random_constraint_instance(rng)
        if not s.propagate():
            sequences += 1
            continue
        marks = [s._mark()]
        states = [snapshot(s)]
        for _ in range(rng.randint(1, 5)):
            unfixed = [v for v in s.int_vars if not v.is_fixed()]
            open_sets = [v for v in s.set_vars if v.undecided()]
            if unfixed and (rng.random() < 0.5 or not open_sets):
                var = rng.choice(unfixed)
                var.assign(rng.choice(var.domain()))
            elif open_sets:
                svar = rng.choice(open_sets)
                undecided = svar.undecided()
                elems = [i for i in range(undecided.bit_length()) if undecided >> i & 1]
                e = rng.choice(elems)
                svar.include(e) if rng.random() < 0.5 else svar.exclude(e)
            else:
                break
            s.propagate()
            marks.append(s._mark())
            states.append(snapshot(s))
        back_to = rng.randrange(len(marks))
        s._undo_to(marks[back_to])
        assert snapshot(s) == states[back_to], "trail restoration mismatch"
        s._undo_to(marks[0])
        assert snapshot(s) == states[0], "root restoration mismatch"
        sequences += 1
    assert sequences >= 10000
    print(
        f"criterion 9 PASS: {instances} generate-and-test instances, "
        f"{sequences} trail fuzz sequences, zero counterexamples"
    )


def test_criterion_10_format_round_trips():
    corpus = _corpus()
    rng = random.Random(55)
    pairs = list(corpus)
    while len(pairs) < 100:
        g = random_graph(rng.randint(1, 6), 0.5, rng)
        pairs.append((g, brute_treewidth(g).decomposition))
    count = 0
    for g, td in pairs[:100] if len(pairs) >= 100 else pairs:
        text = write_td(td, g)
        back = parse_td(text)
        assert back == td, "structure changed in the round trip"
        assert write_td(back, g) == text, "bytes changed in the round trip"
        assert validate(g, back) == []
        count += 1
    assert count == 100
    print(f"criterion 10 PASS: {count} decompositions round-trip byte-and-structure exact")
