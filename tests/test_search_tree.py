"""The search tree is the regression gate for propagation changes.

Per-step (m, w, status, decisions, fails) of full treewidth and
pathwidth schedules on twelve G(n, 1/2) graphs (eight with n = 6, four
with n = 7, drawn with tests.helpers.random_graph from random.Random(1)).
The values were recorded before propagators woke on typed set events,
before RunningIntersection was merged per child node and before LexLeq
ran on set bounds. An exact propagation change keeps every one of them;
only the propagation count may move.

Every pinned step is searched again through unhinted ``decide``, so the
whole search tree stays pinned although the schedule no longer searches
every step the same way. The schedule must match the same table except
that a step with w <= minor_min_width(g) reads 0 decisions and 0 fails
and carries the certificate, and a step with w >= the greedy upper bound
is solved by a hinted dive: SAT, with no fail.
"""

from __future__ import annotations

import pytest

from tdsolve.driver import decide, minor_min_width, pathwidth, treewidth, upper_bound
from tdsolve.graphs import Graph
from tdsolve.model import Variant

# (n, edges, treewidth steps, pathwidth steps)
PINNED = [
    (
        6,
        [(0, 1), (0, 4), (0, 5), (1, 2), (1, 5), (2, 3), (2, 5), (3, 5), (4, 5)],
        [(1, 6, 'SAT', 0, 0), (2, 5, 'SAT', 5, 0), (3, 4, 'SAT', 11, 0), (4, 3, 'SAT', 56, 23),
         (5, 2, 'UNSAT', 36, 19)],
        [(1, 6, 'SAT', 0, 0), (2, 5, 'SAT', 5, 0), (3, 4, 'SAT', 15, 1), (4, 3, 'SAT', 26, 8),
         (5, 2, 'UNSAT', 68, 35)],
    ),
    (
        6,
        [(0, 2), (0, 5), (1, 2), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)],
        [(1, 6, 'SAT', 0, 0), (2, 5, 'SAT', 8, 1), (3, 4, 'SAT', 12, 0),
         (4, 3, 'UNSAT', 336, 169)],
        [(1, 6, 'SAT', 0, 0), (2, 5, 'SAT', 8, 1), (3, 4, 'SAT', 17, 1),
         (4, 3, 'UNSAT', 208, 105)],
    ),
    (
        6,
        [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (2, 3), (3, 4), (3, 5)],
        [(1, 6, 'SAT', 0, 0), (2, 5, 'SAT', 7, 2), (3, 4, 'SAT', 14, 3), (4, 3, 'SAT', 54, 23),
         (5, 2, 'UNSAT', 30, 16)],
        [(1, 6, 'SAT', 0, 0), (2, 5, 'SAT', 7, 2), (3, 4, 'SAT', 14, 2), (4, 3, 'SAT', 20, 7),
         (5, 2, 'UNSAT', 68, 35)],
    ),
    (
        6,
        [(0, 3), (1, 2), (2, 5), (3, 4), (4, 5)],
        [(1, 6, 'SAT', 0, 0), (2, 5, 'SAT', 4, 0), (3, 4, 'SAT', 8, 0), (4, 3, 'SAT', 19, 2),
         (5, 2, 'SAT', 10, 0), (6, 1, 'UNSAT', 10, 6)],
        [(1, 6, 'SAT', 0, 0), (2, 5, 'SAT', 4, 0), (3, 4, 'SAT', 9, 0), (4, 3, 'SAT', 20, 3),
         (5, 2, 'SAT', 38, 14), (6, 1, 'UNSAT', 10, 6)],
    ),
    (
        6,
        [(0, 1), (0, 5), (1, 2), (2, 3), (2, 4), (2, 5), (3, 4)],
        [(1, 6, 'SAT', 0, 0), (2, 5, 'SAT', 9, 1), (3, 4, 'SAT', 12, 0), (4, 3, 'SAT', 22, 3),
         (5, 2, 'UNSAT', 46, 24)],
        [(1, 6, 'SAT', 0, 0), (2, 5, 'SAT', 9, 1), (3, 4, 'SAT', 13, 0), (4, 3, 'SAT', 19, 2),
         (5, 2, 'UNSAT', 68, 35)],
    ),
    (
        6,
        [(0, 2), (0, 3), (1, 5), (3, 4), (3, 5)],
        [(1, 6, 'SAT', 0, 0), (2, 5, 'SAT', 6, 0), (3, 4, 'SAT', 15, 1), (4, 3, 'SAT', 18, 1),
         (5, 2, 'SAT', 12, 0), (6, 1, 'UNSAT', 10, 6)],
        [(1, 6, 'SAT', 0, 0), (2, 5, 'SAT', 6, 0), (3, 4, 'SAT', 14, 1), (4, 3, 'SAT', 15, 1),
         (5, 2, 'SAT', 18, 4), (6, 1, 'UNSAT', 10, 6)],
    ),
    (
        6,
        [(0, 2), (2, 3), (2, 4), (3, 5)],
        [(1, 6, 'SAT', 0, 0), (2, 5, 'SAT', 6, 0), (3, 4, 'SAT', 13, 1), (4, 3, 'SAT', 21, 6),
         (5, 2, 'SAT', 21, 3), (6, 1, 'UNSAT', 10, 6)],
        [(1, 6, 'SAT', 0, 0), (2, 5, 'SAT', 6, 0), (3, 4, 'SAT', 9, 0), (4, 3, 'SAT', 21, 3),
         (5, 2, 'SAT', 17, 3), (6, 1, 'UNSAT', 10, 6)],
    ),
    (
        6,
        [(0, 1), (0, 2), (0, 3), (1, 3), (1, 4), (1, 5), (2, 3)],
        [(1, 6, 'SAT', 0, 0), (2, 5, 'SAT', 6, 0), (3, 4, 'SAT', 13, 0), (4, 3, 'SAT', 88, 39),
         (5, 2, 'UNSAT', 30, 16)],
        [(1, 6, 'SAT', 0, 0), (2, 5, 'SAT', 6, 0), (3, 4, 'SAT', 12, 0), (4, 3, 'SAT', 27, 7),
         (5, 2, 'UNSAT', 68, 35)],
    ),
    (
        7,
        [(0, 1), (0, 4), (0, 5), (0, 6), (1, 3), (1, 4), (1, 6), (2, 3), (2, 4), (2, 6), (3, 4),
         (3, 6), (4, 5), (4, 6), (5, 6)],
        [(1, 7, 'SAT', 0, 0), (2, 6, 'SAT', 6, 0), (3, 5, 'SAT', 13, 0),
         (4, 4, 'SAT', 491, 239), (5, 3, 'UNSAT', 2350, 1176)],
        [(1, 7, 'SAT', 0, 0), (2, 6, 'SAT', 6, 0), (3, 5, 'SAT', 23, 2), (4, 4, 'SAT', 59, 23),
         (5, 3, 'UNSAT', 352, 177)],
    ),
    (
        7,
        [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 5), (1, 6), (2, 3), (2, 5), (3, 6)],
        [(1, 7, 'SAT', 0, 0), (2, 6, 'SAT', 7, 0), (3, 5, 'SAT', 18, 3), (4, 4, 'SAT', 21, 3),
         (5, 3, 'UNSAT', 1394, 700)],
        [(1, 7, 'SAT', 0, 0), (2, 6, 'SAT', 7, 0), (3, 5, 'SAT', 22, 3), (4, 4, 'SAT', 42, 14),
         (5, 3, 'UNSAT', 336, 169)],
    ),
    (
        7,
        [(0, 1), (0, 3), (0, 5), (1, 2), (1, 3), (1, 6), (2, 4), (3, 4), (3, 5), (3, 6), (4, 6)],
        [(1, 7, 'SAT', 0, 0), (2, 6, 'SAT', 7, 0), (3, 5, 'SAT', 26, 6), (4, 4, 'SAT', 118, 51),
         (5, 3, 'UNSAT', 2214, 1108)],
        [(1, 7, 'SAT', 0, 0), (2, 6, 'SAT', 7, 0), (3, 5, 'SAT', 30, 6), (4, 4, 'SAT', 25, 2),
         (5, 3, 'UNSAT', 470, 236)],
    ),
    (
        7,
        [(0, 3), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (3, 6), (5, 6)],
        [(1, 7, 'SAT', 0, 0), (2, 6, 'SAT', 6, 0), (3, 5, 'SAT', 12, 0),
         (4, 4, 'SAT', 407, 197), (5, 3, 'UNSAT', 6512, 3257)],
        [(1, 7, 'SAT', 0, 0), (2, 6, 'SAT', 6, 0), (3, 5, 'SAT', 17, 0), (4, 4, 'SAT', 34, 8),
         (5, 3, 'UNSAT', 1014, 508)],
    ),
]


def _row(step, decisions, fails):
    return (step.m, step.w, step.status.value, decisions, fails)


@pytest.mark.parametrize("index", range(len(PINNED)))
@pytest.mark.parametrize("problem", ["treewidth", "pathwidth"])
def test_search_tree_is_pinned(problem, index):
    n, edges, tw_steps, pw_steps = PINNED[index]
    g = Graph.from_edges(n, edges)
    pinned = tw_steps if problem == "treewidth" else pw_steps
    variant = Variant.TREE if problem == "treewidth" else Variant.PATH
    searched = []
    for m, w, *_ in pinned:
        step = decide(g, m, w, variant=variant)
        searched.append(_row(step, step.report.decisions, step.report.fails))
    assert searched == pinned

    lb, minor = minor_min_width(g)
    ub = upper_bound(g, variant)[0]
    trace = (treewidth if problem == "treewidth" else pathwidth)(g).trace
    assert len(trace) == len(pinned)
    for step, (m, w, status, decisions, fails) in zip(trace, pinned):
        if w <= lb:
            assert _row(step, step.report.decisions, step.report.fails) == (m, w, status, 0, 0)
        elif w >= ub:
            assert (step.m, step.w, step.status.value, step.report.fails) == (m, w, "SAT", 0)
            assert status == "SAT"
        else:
            assert _row(step, step.report.decisions, step.report.fails) == (
                m, w, status, decisions, fails,
            )
    assert [s.bound for s in trace] == [minor if s.w <= lb else None for s in trace]
