"""Exact treewidth and pathwidth for small graphs, with witnesses.

A decision instance (graph, node count, width bound) is compiled into a
constraint model over set and integer variables and solved by a small
propagation engine; a lockstep schedule of such instances yields the
exact treewidth or pathwidth together with a validated decomposition.
An independent validator certifies the answers; the exact subset-DP
oracles of ``tdsolve.oracle`` cross-check them on small graphs.
"""

from .driver import (
    ScheduleInterrupted,
    ScheduleStep,
    SearchLimitExceeded,
    WidthResult,
    decide,
    minor_min_width,
    pathwidth,
    treewidth,
)
from .engine import SolveReport, Solver, Status
from .graphio import ParseError, export_dot, parse_edge_list, parse_gr, parse_td, write_td
from .graphs import Graph, TreeDecomposition
from .model import ModelInstance, Variant, build_model, extract_decomposition
from .validator import Violation, ViolationKind, check_minor_bound, validate

__all__ = [
    "Graph",
    "TreeDecomposition",
    "ParseError",
    "parse_gr",
    "parse_edge_list",
    "parse_td",
    "write_td",
    "export_dot",
    "Violation",
    "ViolationKind",
    "validate",
    "check_minor_bound",
    "Solver",
    "SolveReport",
    "Status",
    "ModelInstance",
    "Variant",
    "build_model",
    "extract_decomposition",
    "ScheduleStep",
    "ScheduleInterrupted",
    "SearchLimitExceeded",
    "WidthResult",
    "decide",
    "treewidth",
    "pathwidth",
    "minor_min_width",
]
