"""Compile one decision instance (graph, node count m, width bound w)
into engine variables and propagators, and decode solved instances.

Variables per instance: per decomposition node, a set variable over the
vertices, a set variable over the edge indices (the edges the node
holds), a parent integer, and on a tree a depth integer. One channel
per node ties its edge set to its vertex set, and one union over the
edge sets places every edge in some node. The unary facts are part of
the initial domains: node 0 is the root at depth 0, no node is its own
parent, and on a path node i hangs from node i - 1. On a tree, one
running-intersection propagator covers every pair of nodes, reading
the vertices two nodes share straight from their set variables. It
also keeps each child one level below its parent, so that the depths
it guards on are those of the rooted tree. On a path, whose parents
are constants, one chain over the node sets in path order keeps each
vertex's nodes contiguous. Either way the model grows linearly in m.
``smooth`` asks for a smooth decomposition (see ``driver``).
Symmetry breaking orders node sets lexicographically on their
membership vectors, vertex 0 first: every consecutive pair for
free-form trees, first against last for path-shaped instances (whose
only node symmetry is reversal). A model built ``around`` a given
decomposition has its node sets and parents fixed from the start and
goes without the cut: the search makes no decision for it to prune.
"""

from __future__ import annotations

from enum import Enum

from . import propagators as props
from .engine import IntVar, SetVar, Solver
from .graphs import Graph, TreeDecomposition


class Variant(Enum):
    TREE = "tree"
    PATH = "path"


class ModelInstance:
    """One built instance: its solver and the variables that the search
    and ``extract_decomposition`` read."""

    __slots__ = ("solver", "node_sets", "parents", "depths", "edge_sets", "decision_vars")

    def __init__(
        self,
        solver: Solver,
        node_sets: list[SetVar],
        parents: list[IntVar],
        depths: list[IntVar],  # empty on a path
        edge_sets: list[SetVar],  # per node, over the indices of g.edges
        decision_vars: list[IntVar | SetVar],
    ) -> None:
        self.solver = solver
        self.node_sets = node_sets
        self.parents = parents
        self.depths = depths
        self.edge_sets = edge_sets
        self.decision_vars = decision_vars


def build_model(
    g: Graph,
    m: int,
    w: int,
    variant: Variant = Variant.TREE,
    symmetry_breaking: bool = True,
    smooth: bool = False,
    around: TreeDecomposition | None = None,
) -> ModelInstance:
    """Create all variables and post all constraints for one instance.

    Asks: does g have a decomposition with exactly m nodes, each of
    cardinality at most w (a path-shaped one for the PATH variant)?
    With ``smooth`` it asks for a smooth one: every node of exactly w
    vertices, each child with exactly one vertex its parent lacks.
    Decision variables are the parent variables followed by the edge
    sets, whose elements the search takes edge by edge, nodes ascending.

    ``around``, a decomposition with m nodes over vertices of g and
    parents in 0..m-1 (in path order for PATH, whose parents are the
    chain either way), asks whether it is one: node set i is fixed to
    its node i before any propagator is posted, and on a tree parent i
    is created fixed to its parent i. No lex cut is posted, so the
    nodes keep their order. The root propagation derives the depths
    and edge sets, and fails iff it is no decomposition of the
    instance.
    """
    if m < 1:
        raise ValueError(f"node count must be positive, got {m}")
    if w < 1:
        raise ValueError(f"width bound must be positive, got {w}")
    if g.n < 1:
        raise ValueError("the graph must have at least one vertex")

    solver = Solver()
    node_sets = [solver.set_var(g.n, f"node{i}") for i in range(m)]
    fixed = None
    if around is not None:
        for x, bag in zip(node_sets, around.nodes):
            x.required = x.possible = sum(1 << v for v in bag)
        fixed = around.parent
    if variant is Variant.PATH:
        fixed = range(-1, m - 1)  # node i hangs from node i - 1
    parents = [solver.int_var(0, 0, "parent0")]
    for i in range(1, m):
        if fixed is None:
            parents.append(solver.int_var(0, m - 1, f"parent{i}"))
            parents[i].remove(i)
        else:
            parents.append(solver.int_var(fixed[i], fixed[i], f"parent{i}"))
    depths = []
    if variant is Variant.TREE:
        depths = [solver.int_var(0, 0, "depth0")]
        depths += [solver.int_var(0, m - 1, f"depth{i}") for i in range(1, m)]

    for x in node_sets:
        solver.post(props.CardinalityAtMost(x, w, exact=smooth))
    solver.post(props.UnionEquals(node_sets, (1 << g.n) - 1))

    ends, incident = props.incidence(g.n, g.edges)
    edge_sets = [solver.set_var(len(g.edges), f"edges{k}") for k in range(m)]
    for x, edge_set in zip(node_sets, edge_sets):
        solver.post(props.EdgeInNode(x, edge_set, ends, incident))
    solver.post(props.UnionEquals(edge_sets, (1 << len(g.edges)) - 1))

    if variant is Variant.PATH:
        solver.post(props.PathIntersection(node_sets, smooth))
    else:
        solver.post(props.RunningIntersection(depths, parents, node_sets, smooth))

    if symmetry_breaking and around is None and m > 1:
        if variant is Variant.TREE:
            for i in range(m - 1):
                solver.post(props.LexLeq(node_sets[i], node_sets[i + 1]))
        else:
            # Nodes on a path cannot be reordered freely, only reversed,
            # so ordering consecutive nodes would cut real solutions.
            # Break the reversal symmetry alone.
            solver.post(props.LexLeq(node_sets[0], node_sets[m - 1]))

    return ModelInstance(
        solver=solver,
        node_sets=node_sets,
        parents=parents,
        depths=depths,
        edge_sets=edge_sets,
        decision_vars=parents + edge_sets,
    )


def extract_decomposition(mi: ModelInstance) -> TreeDecomposition:
    """Read the node sets and parents of the solved model mi into a
    TreeDecomposition. Raises ValueError if one of them is not fixed."""
    nodes = tuple(x.value() for x in mi.node_sets)
    parent = tuple(p.value() for p in mi.parents)
    return TreeDecomposition(nodes=nodes, parent=parent)

