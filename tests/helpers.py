"""Shared test utilities: graph builders, exhaustive enumerations, and a
generate-and-test micro-oracle for engine constraints."""

from __future__ import annotations

import itertools
import random

from tdsolve.engine import SolveReport, Solver
from tdsolve.graphs import Graph
from tdsolve.model import build_model


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def edgeless_graph(n):
    return Graph.from_edges(n, [])


def star_graph(leaves):
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def all_labeled_graphs(n):
    """Every labeled simple graph on n vertices (2^C(n,2) of them)."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph.from_edges(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])


def random_graph(n, p, rng):
    edges = [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p]
    return Graph.from_edges(n, edges)


def draw_graph(n, seed, p, index):
    """Draw ``index`` (0-based) of G(n, p) from random.Random(seed)."""
    rng = random.Random(seed)
    for _ in range(index):
        random_graph(n, p, rng)
    return random_graph(n, p, rng)


def random_connected_graph(n, edge_count, rng):
    pairs = list(itertools.combinations(range(n), 2))
    while True:
        rng.shuffle(pairs)
        g = Graph.from_edges(n, pairs[:edge_count])
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in g.adjacency[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        if len(seen) == n:
            return g


def random_tree(n, rng):
    """Uniform random labeled tree via a Pruefer sequence."""
    if n == 1:
        return Graph.from_edges(1, [])
    if n == 2:
        return Graph.from_edges(2, [(0, 1)])
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = min(u for u in range(n) if degree[u] == 1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    last = [u for u in range(n) if degree[u] == 1]
    edges.append((last[0], last[1]))
    return Graph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# Generate-and-test oracle over engine variables.


def snapshot(solver: Solver):
    """Current bounds of every variable, hashable."""
    ints = tuple(v.mask for v in solver.int_vars)
    sets = tuple((s.required, s.possible) for s in solver.set_vars)
    return ints, sets


def search_without_lex(g: Graph, m: int, w: int) -> SolveReport:
    """Search the tree instance (m, w) on the model without the lex cut."""
    mi = build_model(g, m, w, symmetry_breaking=False)
    return mi.solver.solve(decision_vars=mi.decision_vars)


def solved_assignment(solver: Solver) -> dict:
    """Every variable of a solved model keyed to its value, the form
    ``Solver.check_witness`` audits. Raises ValueError if one is not fixed."""
    return {var: var.value() for var in (*solver.int_vars, *solver.set_vars)}


def enumerate_assignments(solver: Solver, int_masks, set_bounds):
    """Every full assignment within the given bounds.

    Yields dicts keyed by variable, ints for IntVars and frozensets for
    SetVars, matching witness layout.
    """
    int_choices = []
    for var, mask in zip(solver.int_vars, int_masks):
        values = []
        v = mask
        while v:
            low = v & -v
            values.append(low.bit_length() - 1)
            v ^= low
        int_choices.append(values)
    set_choices = []
    for svar, (req, pos) in zip(solver.set_vars, set_bounds):
        undecided = []
        u = pos & ~req
        while u:
            low = u & -u
            undecided.append(low.bit_length() - 1)
            u ^= low
        options = []
        for extra in range(1 << len(undecided)):
            members = req
            for i, e in enumerate(undecided):
                if extra >> i & 1:
                    members |= 1 << e
            options.append(frozenset(i for i in range(members.bit_length()) if members >> i & 1))
        set_choices.append(options)
    for int_vals in itertools.product(*int_choices):
        for set_vals in itertools.product(*set_choices):
            assignment = {}
            for var, value in zip(solver.int_vars, int_vals):
                assignment[var] = value
            for svar, value in zip(solver.set_vars, set_vals):
                assignment[svar] = value
            yield assignment


def solutions_within(solver: Solver, int_masks, set_bounds):
    return [
        a
        for a in enumerate_assignments(solver, int_masks, set_bounds)
        if solver.check_witness(a)
    ]


def assignment_within_bounds(solver: Solver, assignment) -> bool:
    for var in solver.int_vars:
        if not var.contains(assignment[var]):
            return False
    for svar in solver.set_vars:
        members = 0
        for e in assignment[svar]:
            members |= 1 << e
        if svar.required & ~members or members & ~svar.possible:
            return False
    return True


def random_constraint_instance(rng: random.Random) -> Solver:
    """A solver with one random propagator over small random domains;
    cycles through every propagator kind."""
    from tdsolve.propagators import (
        CardinalityAtMost,
        EdgeInNode,
        LexLeq,
        PathIntersection,
        RunningIntersection,
        UnionEquals,
        incidence,
    )

    s = Solver()
    kind = rng.randrange(8)
    if kind == 0:
        x = s.set_var(4)
        tighten_randomly(s, rng)
        s.post(CardinalityAtMost(x, rng.randint(0, 3), exact=rng.random() < 0.5))
    elif kind == 1:
        xs = [s.set_var(3) for _ in range(rng.randint(1, 3))]
        tighten_randomly(s, rng)
        universe = 0
        for x in xs:
            universe |= x.possible
        s.post(UnionEquals(xs, universe))
    elif kind == 2:
        # one node's vertex set and edge set over a random small graph
        n = rng.randint(3, 4)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.6]
        x = s.set_var(n)
        edge_set = s.set_var(len(edges))
        tighten_randomly(s, rng)
        s.post(EdgeInNode(x, edge_set, *incidence(n, edges)))
    elif kind == 3:
        # the edge sets of a few nodes, which must hold every edge
        size = rng.randint(1, 4)
        edge_sets = [s.set_var(size) for _ in range(rng.randint(1, 3))]
        tighten_randomly(s, rng)
        s.post(UnionEquals(edge_sets, (1 << size) - 1))
    elif kind == 4:
        # deeper trees than kind 5, with one-vertex sets: the depth rule.
        # Each node hangs from an earlier one, which keeps the
        # enumeration small at four nodes, except one child whose parent
        # may be any other node, a later one included.
        size = rng.randint(2, 4)
        free = rng.randrange(1, size)
        depths = [s.int_var(0, size - 1) for _ in range(size)]
        parents = [s.int_var(0, size - 1 if k == free else max(k - 1, 0)) for k in range(size)]
        parents[free].remove(free)
        nodes = [s.set_var(1) for _ in range(size)]
        tighten_randomly(s, rng)
        s.post(RunningIntersection(depths, parents, nodes))
    elif kind == 5:
        nodes_n = 3
        depths = [s.int_var(0, nodes_n - 1) for _ in range(nodes_n)]
        parents = [s.int_var(0, 0)] + [s.int_var(0, nodes_n - 1) for _ in range(1, nodes_n)]
        for k in range(1, nodes_n):
            parents[k].remove(k)
        nodes = [s.set_var(2) for _ in range(nodes_n)]
        tighten_randomly(s, rng)
        s.post(RunningIntersection(depths, parents, nodes, smooth=rng.random() < 0.5))
    elif kind == 6:
        # a path's node sets, in path order
        size = rng.randint(2, 3)
        nodes = [s.set_var(size) for _ in range(rng.randint(2, 4))]
        tighten_randomly(s, rng)
        s.post(PathIntersection(nodes, smooth=rng.random() < 0.5))
    else:
        size = rng.randint(1, 4)
        a, b = s.set_var(size), s.set_var(size)
        tighten_randomly(s, rng)
        s.post(LexLeq(a, b))
    return s


def tighten_randomly(solver: Solver, rng: random.Random) -> None:
    """Randomly shrink initial domains, keeping every variable nonempty."""
    for var in solver.int_vars:
        values = var.domain()
        keep = rng.randint(1, len(values))
        kept = rng.sample(values, keep)
        mask = 0
        for v in kept:
            mask |= 1 << v
        var.mask = mask  # initial setup, no trail needed
    for svar in solver.set_vars:
        universe = svar.universe
        pos = 0
        for e in range(universe.bit_length()):
            if universe >> e & 1 and rng.random() < 0.8:
                pos |= 1 << e
        req = 0
        for e in range(pos.bit_length()):
            if pos >> e & 1 and rng.random() < 0.3:
                req |= 1 << e
        svar.required = req
        svar.possible = pos
