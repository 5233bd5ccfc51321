"""Exact treewidth and pathwidth by a lockstep schedule of decision
instances: (m, w) = (1, n), (2, n-1), ... with m + w = n + 1 at every
step. The first step is always satisfiable (the single node holding all
vertices); the first unsatisfiable step proves that the previous step's
width is minimum. The schedule runs down to w = 1 so that edgeless
graphs report their true minimum width.

Before the first step the schedule computes the minor-min-width lower
bound lb <= tw(g) and has the validator check its certificate. A step
with w <= lb is UNSAT by the bound, without search: every node count
then needs a node of more than w vertices. Such a step carries the
certificate in ``bound`` and ends the schedule.

It also computes an upper bound ub >= tw(g) + 1 from a greedy vertex
order: min-degree elimination for trees, a smallest-boundary placement
for paths. For every w >= ub the order gives a decomposition with
exactly n + 1 - w nodes of at most w vertices (merge the bags of the
last w eliminated, or the first w placed, vertices into one), and the
step passes it to the engine as the values to try first. The step is
still searched and its witness still comes out of the model; a hint
only reorders values, so every status, and the search of every UNSAT
step, is what it would be without it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .engine import SolveReport, Status, bits_of
from .graphs import Graph, TreeDecomposition
from .model import Variant, build_model, encode_decomposition, extract_decomposition
from .validator import check_minor_bound, validate


class SearchLimitExceeded(RuntimeError):
    """A decision or time cap was hit before the schedule could finish."""

    def __init__(self, step: "ScheduleStep", trace: list["ScheduleStep"]):
        self.step = step
        self.trace = trace
        super().__init__(f"step (m={step.m}, w={step.w}) hit its search limit")


class ScheduleInterrupted(KeyboardInterrupt):
    """Ctrl-C arrived during a schedule; ``trace`` holds the finished steps."""

    def __init__(self, trace: list["ScheduleStep"]):
        self.trace = trace
        super().__init__("schedule interrupted")


@dataclass
class ScheduleStep:
    """One (m, w) instance of a schedule.

    A SAT step carries a validated ``witness``. A step decided by the
    lower bound instead of search carries ``bound``: branch sets of a
    minor of the graph with minimum degree at least w, which
    ``validator.check_minor_bound`` accepted; its report counts no
    decisions, propagations or fails.
    """

    m: int
    w: int
    status: Status
    report: SolveReport
    witness: TreeDecomposition | None
    bound: tuple[frozenset[int], ...] | None = None


@dataclass
class WidthResult:
    """Outcome of a full schedule.

    min_width is the cardinality of the largest node in an optimal
    decomposition; the conventional treewidth/pathwidth subtracts one.
    """

    min_width: int
    witness: TreeDecomposition
    trace: list[ScheduleStep]
    variant: Variant

    @property
    def treewidth(self) -> int:
        return self.min_width - 1

    @property
    def pathwidth(self) -> int:
        return self.min_width - 1


def decide(
    g: Graph,
    m: int,
    w: int,
    variant: Variant = Variant.TREE,
    symmetry_breaking: bool = True,
    decision_limit: int | None = None,
    timeout: float | None = None,
    hint: TreeDecomposition | None = None,
) -> ScheduleStep:
    """Solve one decision instance; SAT steps carry a validated witness.

    ``hint``, a decomposition with m nodes (in path order for PATH), is
    the assignment the engine tries first. It changes neither the
    answer nor the search of an UNSAT instance, only how soon a SAT
    one finds its witness.
    """
    mi = build_model(g, m, w, variant=variant, symmetry_breaking=symmetry_breaking)
    report = mi.solver.solve(
        decision_vars=mi.decision_vars,
        decision_limit=decision_limit,
        timeout=timeout,
        hint=None if hint is None else encode_decomposition(mi, hint),
    )
    witness = None
    if report.status is Status.SAT:
        td = extract_decomposition(mi, report.witness)
        violations = validate(
            g, td, expect_m=m, expect_w=w, expect_path=variant is Variant.PATH
        )
        if violations:
            raise RuntimeError(
                "solver returned an invalid decomposition: "
                + "; ".join(str(v) for v in violations)
            )
        witness = td
    return ScheduleStep(m=m, w=w, status=report.status, report=report, witness=witness)


class _Buckets:
    """Vertices keyed by a changing priority. ``pop`` takes a vertex of
    least key, lowest index on ties, in time linear in the number of
    distinct keys."""

    def __init__(self, keys: list) -> None:
        self.keys = keys
        self.masks: dict = {}
        for v, key in enumerate(keys):
            self.masks[key] = self.masks.get(key, 0) | 1 << v

    def move(self, v: int, key) -> None:
        """Give queued vertex v a new key."""
        self.take(v)
        self.keys[v] = key
        self.masks[key] = self.masks.get(key, 0) | 1 << v

    def take(self, v: int) -> None:
        """Remove queued vertex v."""
        key = self.keys[v]
        rest = self.masks[key] & ~(1 << v)
        if rest:
            self.masks[key] = rest
        else:
            del self.masks[key]

    def pop(self) -> int:
        mask = self.masks[min(self.masks)]
        v = (mask & -mask).bit_length() - 1
        self.take(v)
        return v


def minor_min_width(g: Graph) -> tuple[int, tuple[frozenset[int], ...]]:
    """Minor-min-width lower bound on the treewidth of g, with its minor.

    Repeatedly takes a vertex v of minimum degree (lowest index on ties),
    raises the bound to deg(v), and contracts v into its neighbour of
    minimum degree (lowest index on ties), or deletes v if it is
    isolated. Returns ``(lb, branch_sets)``: the branch sets of the
    minor in force when lb was last raised, ascending by representative.
    Each is connected in g and the minor has minimum degree lb, which
    ``validator.check_minor_bound`` checks by direct traversal.
    """
    adj = {v: set(g.adjacency[v]) for v in range(g.n)}
    branch = {v: {v} for v in range(g.n)}
    queue = _Buckets([len(adj[v]) for v in range(g.n)])
    lb, minor = 0, tuple(frozenset(b) for b in branch.values())
    while adj:
        v = queue.pop()
        if len(adj[v]) > lb:
            lb = len(adj[v])
            minor = tuple(frozenset(branch[u]) for u in adj)
        neighbours = adj.pop(v)
        members = branch.pop(v)
        for x in neighbours:
            adj[x].discard(v)
        if neighbours:
            u = min(neighbours, key=lambda x: (len(adj[x]), x))
            branch[u] |= members
            for x in neighbours - {u}:
                adj[x].add(u)
                adj[u].add(x)
        for x in neighbours:
            queue.move(x, len(adj[x]))
    return lb, minor


def _out_of_time(deadline: float | None) -> bool:
    return deadline is not None and time.perf_counter() > deadline


def _min_degree_order(g: Graph, deadline: float | None) -> tuple[list[int], list[int]] | None:
    """Eliminate a vertex of minimum degree (lowest index on ties) and
    make its neighbours a clique, n times. The bag of each vertex, a
    mask, is the vertex and its neighbours when it was eliminated."""
    adj = [sum(1 << u for u in nbrs) for nbrs in g.adjacency]
    queue = _Buckets([len(nbrs) for nbrs in g.adjacency])
    order, bags = [], []
    for _ in range(g.n):
        if _out_of_time(deadline):
            return None
        v = queue.pop()
        nbrs = adj[v]
        order.append(v)
        bags.append(nbrs | 1 << v)
        for u in bits_of(nbrs):
            adj[u] = (adj[u] | nbrs) & ~(1 << u | 1 << v)
            queue.move(u, adj[u].bit_count())
    return order, bags


def _greedy_path_order(g: Graph, deadline: float | None) -> tuple[list[int], list[int]] | None:
    """Place a vertex of minimum degree first, then each time the vertex
    that leaves the smallest boundary (placed vertices with an unplaced
    neighbour); ties go to most placed neighbours, then lowest index.
    The bag of each vertex, a mask, is the boundary before it and itself.

    ``delta[x]`` is how much placing x would grow the boundary: 1 if x
    has an unplaced neighbour, less one per placed neighbour whose only
    unplaced neighbour x is. It changes only around the placed vertex.
    """
    nbr_masks = [sum(1 << u for u in nbrs) for nbrs in g.adjacency]
    open_deg = [len(nbrs) for nbrs in g.adjacency]
    placed_nbrs = [0] * g.n
    delta = [int(d > 0) for d in open_deg]
    queue = _Buckets([(d, 0) for d in delta])
    unplaced = (1 << g.n) - 1
    boundary = 0
    order, bags = [], []

    def lose_one(x: int) -> None:
        delta[x] -= 1
        queue.move(x, (delta[x], -placed_nbrs[x]))

    while unplaced:
        if _out_of_time(deadline):
            return None
        if order:
            v = queue.pop()
        else:
            v = min(range(g.n), key=lambda u: (open_deg[u], u))
            queue.take(v)
        order.append(v)
        bags.append(boundary | 1 << v)
        unplaced ^= 1 << v
        for u in g.adjacency[v]:
            open_deg[u] -= 1
            if not unplaced >> u & 1:
                if open_deg[u] == 0:
                    boundary ^= 1 << u
                elif open_deg[u] == 1:
                    lose_one((nbr_masks[u] & unplaced).bit_length() - 1)
            else:
                placed_nbrs[u] += 1
                delta[u] -= open_deg[u] == 0
                queue.move(u, (delta[u], -placed_nbrs[u]))
        if open_deg[v]:
            boundary |= 1 << v
            if open_deg[v] == 1:
                lose_one((nbr_masks[v] & unplaced).bit_length() - 1)
    return order, bags


def upper_bound(
    g: Graph, variant: Variant, deadline: float | None = None
) -> tuple[int, list[int], list[int]] | None:
    """A width ub that g certainly has a decomposition of (a path-shaped
    one for PATH), with the greedy order and bag masks that prove it,
    as ``(ub, order, bags)``. None once ``time.perf_counter()`` passes
    ``deadline``."""
    build = _min_degree_order if variant is Variant.TREE else _greedy_path_order
    found = build(g, deadline)
    if found is None:
        return None
    order, bags = found
    return max(b.bit_count() for b in bags), order, bags


def smooth_decomposition(
    variant: Variant, order: list[int], bags: list[int], w: int
) -> TreeDecomposition:
    """The decomposition with exactly n + 1 - w nodes that an order from
    ``upper_bound`` gives for a width w >= ub.

    TREE: the bags of the first n - w eliminated vertices under a root
    bag holding the last w; a bag hangs from the bag of the first of its
    other vertices to be eliminated. PATH: a bag holding the first w placed vertices,
    then the bags of the others in order.
    """
    n, cut = len(order), len(order) - w
    if variant is Variant.PATH:
        nodes = [order[:w]] + [bits_of(b) for b in bags[w:]]
        return TreeDecomposition(tuple(map(frozenset, nodes)), (0, *range(cut)))
    position = {v: i for i, v in enumerate(order)}
    # node i + 1 holds bag i; every bag hangs from a later one or the root
    parent = [0] * (cut + 1)
    for i in range(cut):
        first = min((position[u] for u in bits_of(bags[i]) if u != order[i]), default=n)
        if first < cut:
            parent[i + 1] = first + 1
    nodes = [order[cut:]] + [bits_of(b) for b in bags[:cut]]
    return TreeDecomposition(tuple(map(frozenset, nodes)), tuple(parent))


def _schedule_pairs(n: int) -> list[tuple[int, int]]:
    return [(m, n + 1 - m) for m in range(1, n + 1)]


def _run_schedule(
    g: Graph,
    variant: Variant,
    decision_limit: int | None,
    timeout: float | None,
) -> WidthResult:
    if g.n < 1:
        raise ValueError("the schedule needs a graph with at least one vertex")
    trace: list[ScheduleStep] = []
    try:
        start = time.perf_counter()
        lb, minor = minor_min_width(g)
        violations = check_minor_bound(g, minor, lb)
        if violations:
            raise RuntimeError(
                "lower bound has an invalid certificate: "
                + "; ".join(str(v) for v in violations)
            )
        bound_s = time.perf_counter() - start
        # A timeout also caps the order: past it, the steps run unhinted.
        deadline = None if timeout is None else time.perf_counter() + timeout
        upper = upper_bound(g, variant, deadline)
        for m, w in _schedule_pairs(g.n):
            if w <= lb:
                report = SolveReport(Status.UNSAT, None, 0, 0, 0, bound_s)
                trace.append(ScheduleStep(m, w, Status.UNSAT, report, None, bound=minor))
                break
            hint = None
            if upper is not None and w >= upper[0]:
                hint = smooth_decomposition(variant, upper[1], upper[2], w)
            step = decide(
                g,
                m,
                w,
                variant=variant,
                decision_limit=decision_limit,
                timeout=timeout,
                hint=hint,
            )
            trace.append(step)
            if step.status is Status.UNSAT:
                break
            if step.status is Status.INDETERMINATE:
                raise SearchLimitExceeded(step, trace)
    except KeyboardInterrupt:
        raise ScheduleInterrupted(trace) from None

    last_sat = None
    for step in trace:
        if step.status is Status.SAT:
            last_sat = step
    if last_sat is None:
        raise RuntimeError("the single-node step cannot be unsatisfiable")
    return WidthResult(
        min_width=last_sat.w, witness=last_sat.witness, trace=trace, variant=variant
    )


def treewidth(
    g: Graph,
    decision_limit: int | None = None,
    timeout: float | None = None,
) -> WidthResult:
    """Minimum decomposition width of g, with a validated witness."""
    return _run_schedule(g, Variant.TREE, decision_limit, timeout)


def pathwidth(
    g: Graph,
    decision_limit: int | None = None,
    timeout: float | None = None,
) -> WidthResult:
    """Minimum path-decomposition width of g, with a validated witness."""
    return _run_schedule(g, Variant.PATH, decision_limit, timeout)
