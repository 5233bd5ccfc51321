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
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .engine import SolveReport, Status
from .graphs import Graph, TreeDecomposition
from .model import Variant, build_model, extract_decomposition
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
) -> ScheduleStep:
    """Solve one decision instance; SAT steps carry a validated witness."""
    mi = build_model(g, m, w, variant=variant, symmetry_breaking=symmetry_breaking)
    report = mi.solver.solve(
        decision_vars=mi.decision_vars,
        decision_limit=decision_limit,
        timeout=timeout,
    )
    witness = None
    if report.status is Status.SAT:
        td = extract_decomposition(mi, report.witness)
        violations = validate(g, td, expect_m=m, expect_w=w)
        if violations:
            raise RuntimeError(
                "solver returned an invalid decomposition: "
                + "; ".join(str(v) for v in violations)
            )
        witness = td
    return ScheduleStep(m=m, w=w, status=report.status, report=report, witness=witness)


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
    lb, minor = 0, tuple(frozenset(b) for b in branch.values())
    while adj:
        v = min(adj, key=lambda u: (len(adj[u]), u))
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
    return lb, minor


def _schedule_pairs(n: int) -> list[tuple[int, int]]:
    return [(m, n + 1 - m) for m in range(1, n + 1)]


def _run_schedule(
    g: Graph,
    variant: Variant,
    symmetry_breaking: bool,
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
        for m, w in _schedule_pairs(g.n):
            if w <= lb:
                report = SolveReport(Status.UNSAT, None, 0, 0, 0, bound_s)
                trace.append(ScheduleStep(m, w, Status.UNSAT, report, None, bound=minor))
                break
            step = decide(
                g,
                m,
                w,
                variant=variant,
                symmetry_breaking=symmetry_breaking,
                decision_limit=decision_limit,
                timeout=timeout,
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
    symmetry_breaking: bool = True,
    decision_limit: int | None = None,
    timeout: float | None = None,
) -> WidthResult:
    """Minimum decomposition width of g, with a validated witness."""
    return _run_schedule(g, Variant.TREE, symmetry_breaking, decision_limit, timeout)


def pathwidth(
    g: Graph,
    symmetry_breaking: bool = True,
    decision_limit: int | None = None,
    timeout: float | None = None,
) -> WidthResult:
    """Minimum path-decomposition width of g, with a validated witness."""
    return _run_schedule(g, Variant.PATH, symmetry_breaking, decision_limit, timeout)


def max_nodes_bound(n: int, w: int) -> int:
    """Largest node count of a duplicate-free decomposition of width w
    on n vertices: n - w + 1."""
    if not 1 <= w <= n:
        raise ValueError(f"width {w} out of range 1..{n}")
    return n - w + 1
