"""Seeded graph corpora for the tdsolve benchmark, as ``.gr`` text.

Each workload is a fixed multiset of labeled graphs. The run seed
(``--seed``) decides the order in which the graphs are fed to the
solver and how each ``.gr`` document is written: the order of its edge
lines and which endpoint of an edge comes first. ``parse_gr``
normalizes both, so every seed asks the solver the same questions and
run-to-run spread measures the machine, not the sample.

The random workloads draw their graphs from G(n, 1/2) with a corpus
seed that is a fixed constant of the workload. Fresh G(n, 1/2) draws
per run seed were tried and rejected: a bootstrap over 400 measured
G(6/7, 1/2) solve times puts the spread between samples (interquartile
range over median) at about 15 % for the pass time and 30 % for p90
latency, above the 25 % ceiling any end-to-end bound may have.

This module does not import tdsolve, so the inputs cannot depend on
the code under test. ``run.py`` prints each corpus's fingerprint
before it runs.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from typing import Callable

Edges = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str  # "treewidth" or "pathwidth"
    corpus_seed: int  # fixed; ignored by the exhaustive workload, which draws nothing
    draw: Callable[[random.Random], list[tuple[int, Edges]]]


@dataclass(frozen=True)
class GraphInput:
    key: str  # canonical form, the same for every run seed
    n: int
    edges: Edges
    gr: str


def _all_labeled_graphs(max_n: int) -> list[tuple[int, Edges]]:
    graphs = []
    for n in range(1, max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            graphs.append((n, tuple(p for i, p in enumerate(pairs) if bits >> i & 1)))
    return graphs


def _gnp(n: int, count: int, rng: random.Random) -> list[tuple[int, Edges]]:
    pairs = list(itertools.combinations(range(n), 2))
    return [(n, tuple(p for p in pairs if rng.random() < 0.5)) for _ in range(count)]


# Why each workload (figures from a traced run, see README.md):
# - tw-exhaustive-n5: search trees are tiny, so per-schedule fixed costs
#   (model build ~13 % of schedule time, extraction, validation, parsing)
#   have their largest share of any workload; model-build and
#   per-instance overhead changes show here.
# - tw-random-n67: search dominates (final UNSAT step ~78 % of schedule
#   time, RunningIntersection ~42 % of propagator time, model build <1 %);
#   propagator, engine and schedule changes show here, build-only ones not.
# - pw-random-n7: the same engine with parents fixed to a chain and one
#   LexLeq instead of m-1; a tree-only change must not move it, and any
#   cost it adds to the path variant shows here.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("tw-exhaustive-n5", "treewidth", 0, lambda rng: _all_labeled_graphs(5)),
        Workload("tw-random-n67", "treewidth", 1908, lambda rng: _gnp(6, 50, rng) + _gnp(7, 50, rng)),
        Workload("pw-random-n7", "pathwidth", 1908, lambda rng: _gnp(7, 100, rng)),
    )
}


def canonical_key(n: int, edges: Edges) -> str:
    return f"{n}:" + ",".join(f"{u}-{v}" for u, v in sorted(edges))


def write_gr(n: int, edges: Edges, rng: random.Random) -> str:
    """``.gr`` text with seeded edge-line order and endpoint orientation."""
    lines = [(v + 1, u + 1) if rng.random() < 0.5 else (u + 1, v + 1) for u, v in edges]
    rng.shuffle(lines)
    return "".join([f"p tw {n} {len(edges)}\n"] + [f"{a} {b}\n" for a, b in lines])


def build_corpus(workload: Workload, seed: int) -> list[GraphInput]:
    """The workload's graphs in the order and text that ``seed`` decides."""
    graphs = workload.draw(random.Random(workload.corpus_seed))
    rng = random.Random(seed)
    rng.shuffle(graphs)
    return [GraphInput(canonical_key(n, e), n, e, write_gr(n, e, rng)) for n, e in graphs]


def fingerprint(corpus: list[GraphInput]) -> str:
    """SHA-256 over the ``.gr`` texts in order: equal iff the inputs are equal."""
    digest = hashlib.sha256()
    for item in corpus:
        digest.update(item.gr.encode())
        digest.update(b"\0")
    return digest.hexdigest()[:16]
