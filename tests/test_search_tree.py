"""The search tree is the regression gate for propagation changes.

Per-step (m, w, status, decisions, fails) of full treewidth and
pathwidth schedules on twelve G(n, 1/2) graphs (eight with n = 6, four
with n = 7, drawn with tests.helpers.random_graph from random.Random(1))
and on test_cli's GAP_GR, whose path schedule searches a step.
An exact propagation change keeps every one of them; only the
propagation count may move. Every decision and fail count was
re-recorded, with every status kept, when branching changed to take
only the edge elements that no node holds yet, fewest candidate nodes
first: branching shapes the search tree, so a change to it moves the
counts where a propagation change may not. Of the 135 rows, 72 moved:
19,979 decisions in all became 9,181, and three rows took 2 to 5 more.
Before that, the tree values had held since before propagators woke
on typed set events, and the path values were re-recorded once, when
one PathIntersection chain replaced the pairwise running intersection
on paths.

Every pinned step is searched again on the bare model, through
``helpers.search_model``, so the whole search tree stays pinned although
the schedule no longer searches every step. In the schedule, a step with
w <= minor_min_width(g) reads 0 decisions and 0 fails and carries the
certificate, a step with w >= the greedy upper bound is confirmed from
the greedy order's decomposition: SAT, with no decision or fail, and a
step between the bounds is searched on the smooth model.

The witnesses are pinned too: the sha256 of the ``.td`` text that
``write_td`` gives for each schedule's witness. A change that only
simplifies the code must leave every one of them as it is. A witness
from a confirmed step is the greedy order's decomposition node for
node, so these also pin the orders and ``smooth_decomposition``.
"""

from __future__ import annotations

import hashlib

import pytest

from helpers import search_model
from tdsolve.driver import (
    bounds,
    decide,
    minor_min_width,
    pathwidth,
    treewidth,
    upper_bound,
)
from tdsolve.graphio import write_td
from tdsolve.graphs import Graph
from tdsolve.model import Variant

# (n, edges, treewidth steps, pathwidth steps)
PINNED = [
    (
        6,
        [(0, 1), (0, 4), (0, 5), (1, 2), (1, 5), (2, 3), (2, 5), (3, 5), (4, 5)],
        [(1, 6, 'SAT', 0, 0), (2, 5, 'SAT', 5, 0), (3, 4, 'SAT', 11, 0), (4, 3, 'SAT', 38, 15),
         (5, 2, 'UNSAT', 30, 16)],
        [(1, 6, 'SAT', 0, 0), (2, 5, 'SAT', 5, 0), (3, 4, 'SAT', 12, 0), (4, 3, 'SAT', 23, 8),
         (5, 2, 'UNSAT', 32, 17)],
    ),
    (
        6,
        [(0, 2), (0, 5), (1, 2), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)],
        [(1, 6, 'SAT', 0, 0), (2, 5, 'SAT', 10, 3), (3, 4, 'SAT', 10, 0),
         (4, 3, 'UNSAT', 324, 163)],
        [(1, 6, 'SAT', 0, 0), (2, 5, 'SAT', 10, 3), (3, 4, 'SAT', 11, 0), (4, 3, 'UNSAT', 106, 54)],
    ),
    (
        6,
        [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (2, 3), (3, 4), (3, 5)],
        [(1, 6, 'SAT', 0, 0), (2, 5, 'SAT', 7, 2), (3, 4, 'SAT', 14, 3), (4, 3, 'SAT', 32, 11),
         (5, 2, 'UNSAT', 30, 16)],
        [(1, 6, 'SAT', 0, 0), (2, 5, 'SAT', 7, 2), (3, 4, 'SAT', 12, 2), (4, 3, 'SAT', 20, 7),
         (5, 2, 'UNSAT', 32, 17)],
    ),
    (
        6,
        [(0, 3), (1, 2), (2, 5), (3, 4), (4, 5)],
        [(1, 6, 'SAT', 0, 0), (2, 5, 'SAT', 4, 0), (3, 4, 'SAT', 8, 0), (4, 3, 'SAT', 17, 2),
         (5, 2, 'SAT', 10, 0), (6, 1, 'UNSAT', 10, 6)],
        [(1, 6, 'SAT', 0, 0), (2, 5, 'SAT', 4, 0), (3, 4, 'SAT', 8, 0), (4, 3, 'SAT', 20, 4),
         (5, 2, 'SAT', 17, 6), (6, 1, 'UNSAT', 10, 6)],
    ),
    (
        6,
        [(0, 1), (0, 5), (1, 2), (2, 3), (2, 4), (2, 5), (3, 4)],
        [(1, 6, 'SAT', 0, 0), (2, 5, 'SAT', 9, 2), (3, 4, 'SAT', 11, 0), (4, 3, 'SAT', 19, 3),
         (5, 2, 'UNSAT', 42, 22)],
        [(1, 6, 'SAT', 0, 0), (2, 5, 'SAT', 9, 2), (3, 4, 'SAT', 10, 0), (4, 3, 'SAT', 15, 2),
         (5, 2, 'UNSAT', 32, 17)],
    ),
    (
        6,
        [(0, 2), (0, 3), (1, 5), (3, 4), (3, 5)],
        [(1, 6, 'SAT', 0, 0), (2, 5, 'SAT', 5, 0), (3, 4, 'SAT', 14, 1), (4, 3, 'SAT', 17, 1),
         (5, 2, 'SAT', 12, 0), (6, 1, 'UNSAT', 10, 6)],
        [(1, 6, 'SAT', 0, 0), (2, 5, 'SAT', 5, 0), (3, 4, 'SAT', 13, 1), (4, 3, 'SAT', 13, 1),
         (5, 2, 'SAT', 12, 2), (6, 1, 'UNSAT', 10, 6)],
    ),
    (
        6,
        [(0, 2), (2, 3), (2, 4), (3, 5)],
        [(1, 6, 'SAT', 0, 0), (2, 5, 'SAT', 6, 0), (3, 4, 'SAT', 13, 1), (4, 3, 'SAT', 21, 6),
         (5, 2, 'SAT', 18, 3), (6, 1, 'UNSAT', 10, 6)],
        [(1, 6, 'SAT', 0, 0), (2, 5, 'SAT', 6, 0), (3, 4, 'SAT', 9, 0), (4, 3, 'SAT', 20, 3),
         (5, 2, 'SAT', 16, 3), (6, 1, 'UNSAT', 10, 6)],
    ),
    (
        6,
        [(0, 1), (0, 2), (0, 3), (1, 3), (1, 4), (1, 5), (2, 3)],
        [(1, 6, 'SAT', 0, 0), (2, 5, 'SAT', 6, 0), (3, 4, 'SAT', 11, 0), (4, 3, 'SAT', 29, 9),
         (5, 2, 'UNSAT', 30, 16)],
        [(1, 6, 'SAT', 0, 0), (2, 5, 'SAT', 6, 0), (3, 4, 'SAT', 10, 0), (4, 3, 'SAT', 22, 6),
         (5, 2, 'UNSAT', 32, 17)],
    ),
    (
        7,
        [(0, 1), (0, 4), (0, 5), (0, 6), (1, 3), (1, 4), (1, 6), (2, 3), (2, 4), (2, 6), (3, 4),
         (3, 6), (4, 5), (4, 6), (5, 6)],
        [(1, 7, 'SAT', 0, 0), (2, 6, 'SAT', 6, 0), (3, 5, 'SAT', 13, 0), (4, 4, 'SAT', 247, 119),
         (5, 3, 'UNSAT', 1148, 575)],
        [(1, 7, 'SAT', 0, 0), (2, 6, 'SAT', 6, 0), (3, 5, 'SAT', 14, 0), (4, 4, 'SAT', 37, 14),
         (5, 3, 'UNSAT', 122, 62)],
    ),
    (
        7,
        [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 5), (1, 6), (2, 3), (2, 5), (3, 6)],
        [(1, 7, 'SAT', 0, 0), (2, 6, 'SAT', 7, 0), (3, 5, 'SAT', 12, 0), (4, 4, 'SAT', 20, 3),
         (5, 3, 'UNSAT', 850, 428)],
        [(1, 7, 'SAT', 0, 0), (2, 6, 'SAT', 7, 0), (3, 5, 'SAT', 15, 0), (4, 4, 'SAT', 47, 17),
         (5, 3, 'UNSAT', 116, 59)],
    ),
    (
        7,
        [(0, 1), (0, 3), (0, 5), (1, 2), (1, 3), (1, 6), (2, 4), (3, 4), (3, 5), (3, 6), (4, 6)],
        [(1, 7, 'SAT', 0, 0), (2, 6, 'SAT', 6, 0), (3, 5, 'SAT', 19, 3), (4, 4, 'SAT', 47, 15),
         (5, 3, 'UNSAT', 1160, 581)],
        [(1, 7, 'SAT', 0, 0), (2, 6, 'SAT', 6, 0), (3, 5, 'SAT', 23, 5), (4, 4, 'SAT', 23, 2),
         (5, 3, 'UNSAT', 168, 85)],
    ),
    (
        7,
        [(0, 3), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (3, 6), (5, 6)],
        [(1, 7, 'SAT', 0, 0), (2, 6, 'SAT', 6, 0), (3, 5, 'SAT', 12, 0), (4, 4, 'SAT', 299, 148),
         (5, 3, 'UNSAT', 2328, 1165)],
        [(1, 7, 'SAT', 0, 0), (2, 6, 'SAT', 6, 0), (3, 5, 'SAT', 14, 0), (4, 4, 'SAT', 32, 9),
         (5, 3, 'UNSAT', 332, 167)],
    ),
    # test_cli's GAP_GR: the schedule searches its path step (5, 3)
    (
        7,
        [(0, 1), (0, 5), (0, 6), (1, 6), (2, 4), (2, 5), (3, 4), (3, 6), (4, 5), (4, 6),
         (5, 6)],
        [(1, 7, 'SAT', 0, 0), (2, 6, 'SAT', 6, 0), (3, 5, 'SAT', 22, 4), (4, 4, 'SAT', 25, 3),
         (5, 3, 'SAT', 144, 66), (6, 2, 'UNSAT', 106, 54)],
        [(1, 7, 'SAT', 0, 0), (2, 6, 'SAT', 6, 0), (3, 5, 'SAT', 21, 4), (4, 4, 'SAT', 21, 2),
         (5, 3, 'UNSAT', 260, 131)],
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
        report = search_model(g, m, w, variant)
        searched.append((m, w, report.status.value, report.decisions, report.fails))
    assert searched == pinned

    lb, minor = minor_min_width(g)
    ub = upper_bound(g, variant)[0]
    trace = (treewidth if problem == "treewidth" else pathwidth)(g).trace
    assert len(trace) == len(pinned)
    for step, (m, w, status, decisions, fails) in zip(trace, pinned):
        if w <= lb:
            assert _row(step, step.report.decisions, step.report.fails) == (m, w, status, 0, 0)
        elif w >= ub:
            assert _row(step, step.report.decisions, step.report.fails) == (m, w, "SAT", 0, 0)
            assert status == "SAT"
        else:
            smooth = decide(g, m, w, variant=variant)
            assert _row(step, step.report.decisions, step.report.fails) == _row(
                smooth, smooth.report.decisions, smooth.report.fails
            )
            assert status == step.status.value and step.report.decisions <= decisions
    assert [s.bound for s in trace] == [minor if s.w <= lb else None for s in trace]


# Path steps between the bounds, which the schedule searches on the
# smooth model, on nine-vertex graphs too: (n, edges, m, w, status,
# decisions, fails). The first is the gap step of test_cli's GAP_GR; the
# second is draw 14 of G(9, 0.3) from random.Random(903) (0-based).
PINNED_STEPS = [
    (
        7,
        [(0, 1), (0, 5), (0, 6), (1, 6), (2, 4), (2, 5), (3, 4), (3, 6), (4, 5), (4, 6),
         (5, 6)],
        5, 3, 'UNSAT', 196, 99,
    ),
    (9, [(0, 8), (1, 6), (2, 4), (2, 6), (2, 7), (3, 4), (5, 7)], 8, 2, 'UNSAT', 608, 305),
]


@pytest.mark.parametrize("index", range(len(PINNED_STEPS)))
def test_searched_path_steps_are_pinned(index):
    n, edges, m, w, *expected = PINNED_STEPS[index]
    step = decide(Graph.from_edges(n, edges), m, w, variant=Variant.PATH)
    assert [step.status.value, step.report.decisions, step.report.fails] == expected


# Draw 72 (0-based) of G(9, 0.7) from random.Random(907): its tree gap
# step (4, 6) takes 39,286 decisions on the bare model
TREE_GAP_EDGES = [
    (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (1, 2), (1, 3), (1, 5), (1, 7), (1, 8),
    (2, 4), (2, 5), (2, 6), (2, 7), (2, 8), (3, 4), (3, 5), (3, 6), (3, 7), (4, 5), (4, 7),
    (4, 8), (5, 6), (5, 8), (6, 7), (6, 8),
]


def test_searched_tree_step_is_pinned():
    g = Graph.from_edges(9, TREE_GAP_EDGES)
    lb, _, upper = bounds(g, Variant.TREE)
    assert lb < 6 < upper[0]  # the schedule searches the step
    step = decide(g, 4, 6)
    assert [step.status.value, step.report.decisions, step.report.fails] == ['UNSAT', 2510, 1256]


# sha256 of write_td(witness, g) per PINNED graph: (treewidth, pathwidth)
PINNED_TD_SHA256 = [
    ('1f1e7892d8bc6e41420c5ba489ca90e0979317e5d76f1e66a64cc322c7c840e6',
     'ae84f248dd2cf033522c853850fe104c76faf96dce8c8c8976299f63c6a0555f'),
    ('1e1e2cd7c3aabe82230df5b2c9bb20fe9cf204d114c7105cac1502a6781029e2',
     '5e6feaa1890c5223677f1a345ddce6f69e661f669caa34af17c6a336df2d841c'),
    ('f7972475683b9401cb1db20790c43331a85213451fc768adbdf09ee5794b400a',
     '0983c7ba1139cbf3fb20f0ae885090cc65ba476f5bd728c10472b71bac462989'),
    ('bb6a2d1d6f34488b857ab1f6022f05bd19872634bfcd5663cac4e824034b365b',
     '8d6348a835590040109152278c5ee7af8a58dac1c1d8de3a26fd7baa6e8817f7'),
    ('eea1a3e9e046b577b074b06956f2e315bd5d77ed6c350b73d3ad4c4ee18cb466',
     '0f7164f28777c12feac58546da7a100f59a37e707f5e6d12b489f73c38e3dc3b'),
    ('2cee469703cc92f654c0fad10a055589575d68406c69b272be1facf36845ec59',
     'c216724fbbe5958aef697bcdc386967e9e371da4457173ca9d2817a9ab430a03'),
    ('0ecebd83dbbea14b85ad892d7c0f18cd3699fe893cbdbeda9e0987bc06c43a46',
     '538fb22c827f769467e3e0581fc193e60e30f89ad5a134918445ba98a76528b2'),
    ('bad198a7e95ed78e1dd45fb7d7f0149bf149d9ac899d09a72969ece51fd015e1',
     'eeb38bc52f614bf2dd050a12c9063da55d5d6233472b80aaad453d8f3078efe6'),
    ('f5fe89bd6a273400730011c27fdd29dd4e31a3f943ef838b9762336ef3caa34e',
     'e721e69795d7057b0643fa31f330e025c39988c9c12164dd744f2a4b9b42e93e'),
    ('3e7d98e5e4da44888e752e05f6b0ef33676f41577c4dd278f27621c4d6697c82',
     'e6ba73a6e13d60047b783e4d255155409b4dbc16c8adef61cea74023508a076f'),
    ('5861afb470668079b192b055494e7ffb7e2bcc8ecaf6c0683e6f17d4136e92d5',
     'e0f8eefd4962415a76574ad0bddd42573f934ce9111eaf66af907ae38873105a'),
    ('57bfee604da8701a39596b66b9f4b9f58b0c96e02a019848d5ba1cfe9dadf739',
     'a828c72c76305dd95fb06eac39975811033211c6efa36f1fd882c89a1438f4e7'),
    ('e4934037a0c9f77e6916f15cf1f1ec7278dc2851fd68db5805424ba5ef060343',
     '378fcc49c6c94646a0e4d830a0c6726cd1061d44819062392f92b8bc898057dc'),
]


@pytest.mark.parametrize("index", range(len(PINNED)))
def test_written_witnesses_are_pinned(index):
    n, edges, _, _ = PINNED[index]
    g = Graph.from_edges(n, edges)
    digests = tuple(
        hashlib.sha256(write_td(schedule(g).witness, g).encode()).hexdigest()
        for schedule in (treewidth, pathwidth)
    )
    assert digests == PINNED_TD_SHA256[index]
