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
last w eliminated, or the first w placed, vertices into one). Such a
step is SAT without search: the validator checks that decomposition,
then a model built around it, with its node sets (and on a tree its
parents) fixed as the order lists them, confirms it by its root
propagation alone. The validated decomposition is the witness; nothing
is read back.

While ub - lb >= 2 leaves steps to search, ``bounds`` tries stronger
ones and keeps each only if it is strictly better: the least-c
contraction rule for lb (Bodlaender, Koster & Wolle 2006), and for ub a
min-fill elimination order (trees; Bodlaender & Koster 2010) or the
greedy placement from every start vertex (paths).

A timeout is one deadline for the whole schedule: the bounds stop at
it, no step is confirmed past it, and each searched step gets only what
is left of it. The decision limit caps each searched step: those with
lb < w < ub and, once the deadline has passed, every later one.

With m + w = n + 1, as at every step, g has a decomposition with m
nodes of at most w vertices iff it has a smooth one: every node of
exactly w vertices, each child with exactly one vertex its parent lacks
(Bodlaender 1996). So ``decide`` searches such an instance on the smooth
model, whose constraints cut the search, and any other one on the bare
model; a confirmation stays bare, since the order's decomposition may
have nodes of fewer than w vertices.
"""

from __future__ import annotations

import math
import time

from .engine import SolveReport, Status, bits_of
from .graphs import Graph, TreeDecomposition
from .model import Variant, build_model, extract_decomposition
from .validator import check_minor_bound, validate


class SearchLimitExceeded(RuntimeError):
    """A decision or time cap was hit before the schedule could finish.
    ``lb`` and ``ub`` are the schedule's bounds, as in ``WidthResult``."""

    def __init__(
        self, step: "ScheduleStep", trace: list["ScheduleStep"], lb: int, ub: int | None
    ):
        self.step = step
        self.trace = trace
        self.lb = lb
        self.ub = ub
        super().__init__(f"step (m={step.m}, w={step.w}) hit its search limit")


class ScheduleInterrupted(KeyboardInterrupt):
    """Ctrl-C arrived during a schedule; ``trace`` holds the finished steps.
    ``lb`` and ``ub`` are the schedule's bounds, or None if it had not
    finished computing them (``ub`` is also None when the order ran out
    of time)."""

    def __init__(self, trace: list["ScheduleStep"], lb: int | None, ub: int | None):
        self.trace = trace
        self.lb = lb
        self.ub = ub
        super().__init__("schedule interrupted")


class ScheduleStep:
    """One (m, w) instance of a schedule.

    A SAT step carries a validated ``witness``. A step decided by the
    lower bound instead of search carries ``bound``: branch sets of a
    minor of the graph with minimum degree at least w, which
    ``validator.check_minor_bound`` accepted; its report counts no
    decisions, propagations or fails. A ``confirmed`` step is SAT by
    the greedy order's decomposition, its witness, which the validator
    accepted and a model built around it confirmed by its root
    propagation; its report counts no decisions or fails. ``status``
    reads ``report.status``.
    """

    __slots__ = ("m", "w", "report", "witness", "bound", "confirmed")

    def __init__(
        self,
        m: int,
        w: int,
        report: SolveReport,
        witness: TreeDecomposition | None,
        bound: tuple[frozenset[int], ...] | None = None,
        confirmed: bool = False,
    ) -> None:
        self.m = m
        self.w = w
        self.report = report
        self.witness = witness
        self.bound = bound
        self.confirmed = confirmed

    @property
    def status(self) -> Status:
        return self.report.status


class WidthResult:
    """Outcome of a full schedule.

    min_width is the cardinality of the largest node in an optimal
    decomposition; the conventional treewidth/pathwidth subtracts one.
    lb and ub are the schedule's bounds: every step with w <= lb was
    UNSAT by the minor, and every step with w >= ub SAT by the order
    before the deadline (ub is None if the order ran out of time).
    lb < min_width <= ub.
    """

    __slots__ = ("min_width", "witness", "trace", "variant", "lb", "ub")

    def __init__(
        self,
        min_width: int,
        witness: TreeDecomposition,
        trace: list[ScheduleStep],
        variant: Variant,
        lb: int,
        ub: int | None,
    ) -> None:
        self.min_width = min_width
        self.witness = witness
        self.trace = trace
        self.variant = variant
        self.lb = lb
        self.ub = ub

    @property
    def treewidth(self) -> int:
        if self.variant is not Variant.TREE:
            raise AttributeError("a pathwidth schedule gives no treewidth")
        return self.min_width - 1

    @property
    def pathwidth(self) -> int:
        if self.variant is not Variant.PATH:
            raise AttributeError("a treewidth schedule gives no pathwidth")
        return self.min_width - 1


def check_limits(decision_limit: int | None, timeout: float | None) -> None:
    """Raise ValueError unless each limit is None, or a decision limit
    >= 0 and a finite timeout >= 0 (a NaN one would never expire)."""
    if timeout is not None and not (math.isfinite(timeout) and timeout >= 0):
        raise ValueError(f"timeout must be a finite number >= 0, got {timeout}")
    if decision_limit is not None and decision_limit < 0:
        raise ValueError(f"decision_limit must be at least 0, got {decision_limit}")


def decide(
    g: Graph,
    m: int,
    w: int,
    variant: Variant = Variant.TREE,
    decision_limit: int | None = None,
    timeout: float | None = None,
    confirm: TreeDecomposition | None = None,
) -> ScheduleStep:
    """Solve one decision instance; SAT steps carry a validated witness.

    Without ``confirm`` the instance is searched under the decision and
    time limits, which ``check_limits`` checks first. With it, a
    decomposition to confirm, the validator checks it first: m nodes of
    at most w vertices, and for PATH a path hanging each node i >= 1
    from node i - 1. Any violation raises ValueError, which names it.
    Then ``build_model(around=confirm)`` confirms it by its root
    propagation, a rejection there being a disagreement between model
    and validator (RuntimeError). The step is SAT with no decision or
    fail, its witness is ``confirm`` itself, and the limits do not
    apply. A search with m + w = n + 1 runs on the smooth model, which
    keeps the status there, so its witness is smooth; any other step
    runs on the bare model.
    """
    check_limits(decision_limit, timeout)
    path = variant is Variant.PATH
    if confirm is not None:
        problems = validate(g, confirm, expect_m=m, expect_w=w, expect_path=path)
        if path and tuple(confirm.parent) != (0, *range(m - 1)):
            problems.append("a path to confirm must hang node i from node i - 1")
        if problems:
            detail = "; ".join(map(str, problems))
            raise ValueError(
                f"step (m={m}, w={w}) cannot confirm an invalid decomposition: {detail}"
            )
        decision_limit, timeout = 0, None
    smooth = confirm is None and m + w == g.n + 1
    mi = build_model(g, m, w, variant=variant, smooth=smooth, around=confirm)
    try:
        report = mi.solver.solve(
            decision_vars=mi.decision_vars, decision_limit=decision_limit, timeout=timeout
        )
        witness = confirm
        if confirm is not None and report.status is not Status.SAT:
            raise RuntimeError(
                f"step (m={m}, w={w}): the model rejects a decomposition the validator accepts"
            )
        if confirm is None and report.status is Status.SAT:
            witness = extract_decomposition(mi)
            violations = validate(g, witness, expect_m=m, expect_w=w, expect_path=path)
            if violations:
                raise RuntimeError(
                    "solver returned an invalid decomposition: " + "; ".join(map(str, violations))
                )
    finally:
        mi.solver.unlink()
    return ScheduleStep(m, w, report, witness, confirmed=confirm is not None)


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


def _out_of_time(deadline: float | None) -> bool:
    return deadline is not None and time.perf_counter() > deadline


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
    return _contraction_bound(g, False, None)


def _contraction_bound(
    g: Graph, least_c: bool, deadline: float | None
) -> tuple[int, tuple[frozenset[int], ...]] | None:
    """``minor_min_width``, or with ``least_c`` its least-c rule: v is
    contracted into the neighbour it shares the fewest neighbours with
    (lowest index on ties). None once ``deadline`` passes."""
    adj = {v: set(g.adjacency[v]) for v in range(g.n)}
    branch = {v: {v} for v in range(g.n)}
    queue = _Buckets([len(adj[v]) for v in range(g.n)])
    lb, minor = 0, tuple(frozenset(b) for b in branch.values())
    while adj:
        if _out_of_time(deadline):
            return None
        v = queue.pop()
        if len(adj[v]) > lb:
            lb = len(adj[v])
            minor = tuple(frozenset(branch[u]) for u in adj)
        neighbours = adj.pop(v)
        members = branch.pop(v)
        for x in neighbours:
            adj[x].discard(v)
        if neighbours:
            if least_c:
                u = min(neighbours, key=lambda x: (len(adj[x] & neighbours), x))
            else:
                u = min(neighbours, key=lambda x: (len(adj[x]), x))
            branch[u] |= members
            for x in neighbours - {u}:
                adj[x].add(u)
                adj[u].add(x)
        for x in neighbours:
            queue.move(x, len(adj[x]))
    return lb, minor


def _elimination_order(
    g: Graph, deadline: float | None, min_fill: bool = False
) -> tuple[list[int], list[int]] | None:
    """Eliminate a vertex of minimum degree, or with ``min_fill`` one
    whose elimination adds the fewest edges (lowest index on ties), and
    make its neighbours a clique, n times. The bag of each vertex, a
    mask, is the vertex and its neighbours when it was eliminated."""
    adj = [sum(1 << u for u in nbrs) for nbrs in g.adjacency]

    def key(x: int) -> int:
        nbrs = adj[x]
        d = nbrs.bit_count()
        if not min_fill:
            return d
        # every edge among the neighbours is counted from both ends
        return (d * (d - 1) - sum((adj[u] & nbrs).bit_count() for u in bits_of(nbrs))) // 2

    queue = _Buckets([key(x) for x in range(g.n)])
    order, bags = [], []
    for _ in range(g.n):
        if _out_of_time(deadline):
            return None
        v = queue.pop()
        nbrs = adj[v]
        order.append(v)
        bags.append(nbrs | 1 << v)
        touched = nbrs
        for u in bits_of(nbrs):
            adj[u] = (adj[u] | nbrs) & ~(1 << u | 1 << v)
        if min_fill:
            # the new edges also change the fill of the neighbours' neighbours
            for u in bits_of(nbrs):
                touched |= adj[u]
        for u in bits_of(touched):
            queue.move(u, key(u))
    return order, bags


def _greedy_path_order(
    g: Graph, deadline: float | None, start: int | None = None
) -> tuple[list[int], list[int]] | None:
    """Place ``start``, by default a vertex of minimum degree, first,
    then each time the vertex that leaves the smallest boundary (placed
    vertices with an unplaced neighbour); ties go to most placed
    neighbours, then lowest index.
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
            v = min(range(g.n), key=lambda u: (open_deg[u], u)) if start is None else start
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


def _with_width(
    found: tuple[list[int], list[int]] | None,
) -> tuple[int, list[int], list[int]] | None:
    if found is None:
        return None
    order, bags = found
    return max(b.bit_count() for b in bags), order, bags


def upper_bound(
    g: Graph, variant: Variant, deadline: float | None = None
) -> tuple[int, list[int], list[int]] | None:
    """A width ub that g certainly has a decomposition of (a path-shaped
    one for PATH), with the greedy order and bag masks that prove it,
    as ``(ub, order, bags)``. None once ``time.perf_counter()`` passes
    ``deadline``."""
    build = _elimination_order if variant is Variant.TREE else _greedy_path_order
    return _with_width(build(g, deadline))


def _other_orders(g: Graph, variant: Variant, deadline: float | None):
    """The orders ``bounds`` tries after the greedy one: min-fill
    elimination for TREE, the greedy placement from every start vertex
    for PATH; each is None once ``deadline`` passes."""
    if variant is Variant.TREE:
        return [_elimination_order(g, deadline, min_fill=True)]
    return (_greedy_path_order(g, deadline, start) for start in range(g.n))


def bounds(
    g: Graph, variant: Variant, deadline: float | None = None
) -> tuple[int, tuple[frozenset[int], ...], tuple[int, list[int], list[int]] | None]:
    """The schedule's certified bounds, as ``(lb, minor, upper)``: lb and
    its branch sets, and ``(ub, order, bags)`` or None (see
    ``minor_min_width`` and ``upper_bound``).

    While ub - lb >= 2 leaves a step to search, it also tries the
    least-c rule for lb and ``_other_orders`` for ub, and keeps a bound
    only if it is strictly better. The greedy order and these tries stop
    at ``deadline``. The kept minor is checked once by
    ``check_minor_bound``; a rejection raises RuntimeError.
    """
    lb, minor = minor_min_width(g)
    upper = upper_bound(g, variant, deadline)

    def gap() -> bool:
        return upper is not None and upper[0] - lb >= 2

    if gap():
        found = _contraction_bound(g, True, deadline)
        if found is not None and found[0] > lb:
            lb, minor = found
    if gap():
        for found in map(_with_width, _other_orders(g, variant, deadline)):
            if found is None:
                break
            if found[0] < upper[0]:
                upper = found
                if not gap():
                    break
    violations = check_minor_bound(g, minor, lb)
    if violations:
        raise RuntimeError(
            "lower bound has an invalid certificate: " + "; ".join(str(v) for v in violations)
        )
    return lb, minor, upper


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
    check_limits(decision_limit, timeout)
    if g.n < 1:
        raise ValueError("the schedule needs a graph with at least one vertex")
    trace: list[ScheduleStep] = []
    lb = ub = None
    try:
        start = time.perf_counter()
        deadline = None if timeout is None else start + timeout
        lb, minor, upper = bounds(g, variant, deadline)
        ub = None if upper is None else upper[0]
        bound_s = time.perf_counter() - start
        for m, w in _schedule_pairs(g.n):
            if w <= lb:
                report = SolveReport(Status.UNSAT, 0, 0, 0, bound_s)
                trace.append(ScheduleStep(m, w, report, None, bound=minor))
                break
            confirm = None
            if ub is not None and w >= ub and not _out_of_time(deadline):
                confirm = smooth_decomposition(variant, upper[1], upper[2], w)
            if deadline is not None:
                # what is left of it; past it, a step ends after its root propagation
                timeout = max(0.0, deadline - time.perf_counter())
            try:
                step = decide(
                    g,
                    m,
                    w,
                    variant=variant,
                    decision_limit=decision_limit,
                    timeout=timeout,
                    confirm=confirm,
                )
            except ValueError as exc:
                if confirm is None:
                    raise
                raise RuntimeError(f"greedy order: {exc}") from None
            trace.append(step)
            if step.status is Status.UNSAT:
                break
            if step.status is Status.INDETERMINATE:
                raise SearchLimitExceeded(step, trace, lb, ub)
    except KeyboardInterrupt:
        raise ScheduleInterrupted(trace, lb, ub) from None

    sat = [step for step in trace if step.status is Status.SAT]
    if not sat:
        raise RuntimeError("the single-node step cannot be unsatisfiable")
    return WidthResult(sat[-1].w, sat[-1].witness, trace, variant, lb, ub)


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
