"""Compile one decision instance (graph, node count m, width bound w)
into engine variables and propagators, and decode solved instances.

Variables per instance: one set variable per decomposition node, parent
and depth integers per node, and one 0/1 location variable per (edge,
node) pair. The unary facts are part of the initial domains: node 0 is
the root at depth 0, no node is its own parent, and on a path node i
hangs from node i - 1. One running-intersection propagator per child
node covers every other node, reading the vertices two nodes share
straight from their set variables. It also keeps the child one level
below its parent, so that the depths it guards on are those of the
rooted tree. Symmetry breaking orders node sets lexicographically on
their membership vectors, vertex 0 first: every consecutive pair for
free-form trees, first against last for path-shaped instances (whose
only node symmetry is reversal).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import propagators as props
from .engine import IntVar, SetVar, Solver
from .graphs import Graph, TreeDecomposition, oriented_at_zero


class Variant(Enum):
    TREE = "tree"
    PATH = "path"


@dataclass
class ModelInstance:
    g: Graph
    m: int
    w: int
    variant: Variant
    solver: Solver
    node_sets: list[SetVar]
    parents: list[IntVar]
    depths: list[IntVar]
    locations: list[IntVar]  # flattened, edge-major then node index
    decision_vars: list[IntVar]


def build_model(
    g: Graph,
    m: int,
    w: int,
    variant: Variant = Variant.TREE,
    symmetry_breaking: bool = True,
) -> ModelInstance:
    """Create all variables and post all constraints for one instance.

    Asks: does g have a decomposition with exactly m nodes, each of
    cardinality at most w (a path-shaped one for the PATH variant)?
    Decision variables are the parent variables followed by the
    flattened location variables.
    """
    if m < 1:
        raise ValueError(f"node count must be positive, got {m}")
    if w < 1:
        raise ValueError(f"width bound must be positive, got {w}")
    if g.n < 1:
        raise ValueError("the graph must have at least one vertex")

    solver = Solver()
    node_sets = [solver.set_var(g.n, f"node{i}") for i in range(m)]
    parents = [solver.int_var(0, 0, "parent0")]
    for i in range(1, m):
        if variant is Variant.PATH:
            parents.append(solver.int_var(i - 1, i - 1, f"parent{i}"))
        else:
            parents.append(solver.int_var(0, m - 1, f"parent{i}"))
            parents[i].remove(i)
    depths = [solver.int_var(0, 0, "depth0")]
    depths += [solver.int_var(0, m - 1, f"depth{i}") for i in range(1, m)]

    for x in node_sets:
        solver.post(props.CardinalityAtMost(x, w))
    solver.post(props.UnionEquals(node_sets, (1 << g.n) - 1))

    locations: list[IntVar] = []
    for u, v in g.edges:
        row = []
        for k in range(m):
            bit = solver.int_var(0, 1, f"loc{u}_{v}_{k}")
            row.append(bit)
            locations.append(bit)
            solver.post(props.EdgeInNode(bit, u, v, node_sets[k]))
        solver.post(props.AtLeastOne(row))

    # The root needs none: its parent is itself, which holds everything
    # it shares with any node.
    for k in range(1, m):
        solver.post(props.RunningIntersection(k, depths, parents[k], node_sets))

    if symmetry_breaking and m > 1:
        if variant is Variant.TREE:
            for i in range(m - 1):
                solver.post(props.LexLeq(node_sets[i], node_sets[i + 1]))
        else:
            # Nodes on a path cannot be reordered freely, only reversed,
            # so ordering consecutive nodes would cut real solutions.
            # Break the reversal symmetry alone.
            solver.post(props.LexLeq(node_sets[0], node_sets[m - 1]))

    return ModelInstance(
        g=g,
        m=m,
        w=w,
        variant=variant,
        solver=solver,
        node_sets=node_sets,
        parents=parents,
        depths=depths,
        locations=locations,
        decision_vars=parents + locations,
    )


def extract_decomposition(mi: ModelInstance, witness: dict) -> TreeDecomposition:
    """Read a SAT assignment back into a TreeDecomposition."""
    try:
        nodes = tuple(witness[x] for x in mi.node_sets)
        parent = tuple(witness[p] for p in mi.parents)
    except KeyError as exc:
        raise RuntimeError(f"witness is missing a variable: {exc}") from None
    return TreeDecomposition(nodes=nodes, parent=parent)


def encode_decomposition(mi: ModelInstance, td: TreeDecomposition) -> dict:
    """The assignment of mi's node sets, parents and location bits that
    spells out td, with set values as membership masks: the inverse of
    extract_decomposition. The depths are left out; once the parents are
    fixed, propagation fixes them.

    A tree's nodes are sorted into the LexLeq order and the tree is
    re-rooted at the first; a path, given in path order from node 0,
    is reversed if LexLeq of its two ends needs it. Location bits follow
    from the result. Raises ValueError unless td has exactly mi.m nodes.
    """
    if td.m != mi.m:
        raise ValueError(f"a hint for {mi.m} nodes has {td.m}")
    masks = [sum(1 << v for v in bag) for bag in td.nodes]

    def lex_key(i: int) -> str:
        """Membership vector, vertex 0 first."""
        return format(masks[i], f"0{mi.g.n}b")[::-1]

    if mi.variant is Variant.PATH:
        if lex_key(0) > lex_key(len(masks) - 1):
            masks.reverse()
        parent = [max(i - 1, 0) for i in range(len(masks))]
    else:
        rank = sorted(range(len(masks)), key=lex_key)
        new = {old: i for i, old in enumerate(rank)}
        edges = [(new[p], new[i]) for p, i in td.tree_edges()]
        parent = oriented_at_zero([td.nodes[old] for old in rank], edges).parent
        masks = [masks[old] for old in rank]

    values: dict = dict(zip(mi.node_sets, masks))
    values.update(zip(mi.parents, parent))
    pairs = [1 << u | 1 << v for u, v in mi.g.edges]
    values.update(zip(mi.locations, [int(m & uv == uv) for uv in pairs for m in masks]))
    return values
