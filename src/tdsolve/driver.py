"""Exact treewidth and pathwidth by a lockstep schedule of decision
instances: (m, w) = (1, n), (2, n-1), ... with m + w = n + 1 at every
step. The first step is always satisfiable (the single node holding all
vertices); the first unsatisfiable step proves that the previous step's
width is minimum. By default the schedule runs down to w = 1 so that
edgeless graphs report their true minimum width; the strict variant
stops after the w = 2 step.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import SolveReport, Status, Strategy
from .graphs import Graph, TreeDecomposition
from .model import Variant, build_model, extract_decomposition
from .validator import validate


class SearchLimitExceeded(RuntimeError):
    """A decision or time cap was hit before the schedule could finish."""

    def __init__(self, step: "ScheduleStep", trace: list["ScheduleStep"]):
        self.step = step
        self.trace = trace
        super().__init__(f"step (m={step.m}, w={step.w}) hit its search limit")


@dataclass
class ScheduleStep:
    m: int
    w: int
    status: Status
    report: SolveReport
    witness: TreeDecomposition | None


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
    strategy: Strategy | None = None,
) -> ScheduleStep:
    """Solve one decision instance; SAT steps carry a validated witness."""
    mi = build_model(g, m, w, variant=variant, symmetry_breaking=symmetry_breaking)
    report = mi.solver.solve(
        decision_vars=mi.decision_vars,
        strategy=strategy,
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


def _schedule_pairs(n: int, strict: bool) -> list[tuple[int, int]]:
    pairs = []
    m = 1
    while True:
        w = n + 1 - m
        if w < 1 or (strict and w < 2 and m > 1):
            break
        pairs.append((m, w))
        if w == 1 or (strict and w == 2):
            break
        m += 1
    return pairs


def _run_schedule(
    g: Graph,
    variant: Variant,
    strict: bool,
    symmetry_breaking: bool,
    decision_limit: int | None,
    timeout: float | None,
) -> WidthResult:
    if g.n < 1:
        raise ValueError("the schedule needs a graph with at least one vertex")
    trace: list[ScheduleStep] = []
    for m, w in _schedule_pairs(g.n, strict):
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
    strict_paper_schedule: bool = False,
    symmetry_breaking: bool = True,
    decision_limit: int | None = None,
    timeout: float | None = None,
) -> WidthResult:
    """Minimum decomposition width of g, with a validated witness."""
    return _run_schedule(
        g,
        Variant.TREE,
        strict_paper_schedule,
        symmetry_breaking,
        decision_limit,
        timeout,
    )


def pathwidth(
    g: Graph,
    strict_paper_schedule: bool = False,
    symmetry_breaking: bool = True,
    decision_limit: int | None = None,
    timeout: float | None = None,
) -> WidthResult:
    """Minimum path-decomposition width of g, with a validated witness."""
    return _run_schedule(
        g,
        Variant.PATH,
        strict_paper_schedule,
        symmetry_breaking,
        decision_limit,
        timeout,
    )


def max_nodes_bound(n: int, w: int) -> int:
    """Largest node count of a duplicate-free decomposition of width w
    on n vertices: n - w + 1."""
    if not 1 <= w <= n:
        raise ValueError(f"width {w} out of range 1..{n}")
    return n - w + 1
