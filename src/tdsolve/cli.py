"""Command-line front end.

Exit codes: 10 SAT, 20 UNSAT, 2 search limit hit or interrupted, 1
usage, parse or internal error, 0 for everything else. Stdout of the
width commands is byte-stable across runs; timing only appears under
--stats.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .driver import ScheduleInterrupted, SearchLimitExceeded, decide, pathwidth, treewidth
from .engine import Status
from .graphio import ParseError, export_dot, parse_edge_list, parse_gr, parse_td, write_td
from .model import Variant
from .validator import validate

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INDETERMINATE = 2
EXIT_SAT = 10
EXIT_UNSAT = 20


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this tool reserves 2 for
    # inconclusive searches
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _load(path: str, parse):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(0, f"cannot read {path}: {exc}") from None
    try:
        return parse(text)
    except ParseError as exc:
        raise ParseError(exc.line_no, f"{path}: {exc.message}") from None


def _load_graph(path: str, fmt: str):
    return _load(path, parse_gr if fmt == "gr" else parse_edge_list)


def _step_line(step, stats: bool) -> str:
    line = f"m={step.m} w={step.w} {step.status.value} decisions={step.report.decisions}"
    if step.bound is not None:
        line += " by=bound"
    if stats:
        line += (
            f" propagations={step.report.propagations}"
            f" fails={step.report.fails}"
            f" time={step.report.elapsed:.3f}s"
        )
    return line


def _write_outputs(args, g, td) -> None:
    if getattr(args, "td_output", None):
        Path(args.td_output).write_text(write_td(td, g))
    if getattr(args, "dot_output", None):
        Path(args.dot_output).write_text(export_dot(g, td))


def _check_limits(args) -> None:
    # a NaN timeout would fail every comparison and so never expire
    if args.timeout is not None and not (math.isfinite(args.timeout) and args.timeout >= 0):
        raise ValueError(f"--timeout must be a finite number >= 0, got {args.timeout}")
    if args.decision_limit is not None and args.decision_limit < 0:
        raise ValueError(f"--decision-limit must be at least 0, got {args.decision_limit}")


def _cmd_decide(args) -> int:
    if args.m < 1:
        raise ValueError(f"--m must be at least 1, got {args.m}")
    if args.w < 1:
        raise ValueError(f"--w must be at least 1, got {args.w}")
    _check_limits(args)
    g = _load_graph(args.graph, args.format)
    variant = Variant.PATH if args.path else Variant.TREE
    step = decide(
        g,
        args.m,
        args.w,
        variant=variant,
        decision_limit=args.decision_limit,
        timeout=args.timeout,
    )
    print(step.status.value)
    if args.stats:
        print(_step_line(step, stats=True))
    if step.status is Status.SAT:
        _write_outputs(args, g, step.witness)
        return EXIT_SAT
    if step.status is Status.UNSAT:
        return EXIT_UNSAT
    return EXIT_INDETERMINATE


def _cmd_width(args, runner, label: str) -> int:
    _check_limits(args)
    g = _load_graph(args.graph, args.format)
    try:
        result = runner(
            g,
            decision_limit=args.decision_limit,
            timeout=args.timeout,
        )
    except (SearchLimitExceeded, ScheduleInterrupted) as exc:
        for step in exc.trace:
            print(_step_line(step, args.stats))
        print("INDETERMINATE")
        return EXIT_INDETERMINATE
    for step in result.trace:
        print(_step_line(step, args.stats))
    print(f"min_width={result.min_width}")
    print(f"{label}={result.min_width - 1}")
    _write_outputs(args, g, result.witness)
    return EXIT_OK


def _cmd_validate(args) -> int:
    g = _load_graph(args.graph, args.format)
    td = _load(args.decomposition, parse_td)
    violations = validate(g, td, expect_m=args.m, expect_w=args.w)
    if violations:
        for violation in violations:
            print(violation)
    else:
        print("OK")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    from .oracle import brute_pathwidth, brute_treewidth

    g = _load_graph(args.graph, args.format)
    kwargs = {} if args.limit is None else {"limit": args.limit}
    if args.pathwidth:
        result = brute_pathwidth(g, **kwargs)
        label = "pathwidth"
    else:
        result = brute_treewidth(g, **kwargs)
        label = "treewidth"
    print(f"min_width={result.width}")
    print(f"{label}={result.width - 1}")
    return EXIT_OK


def _cmd_export_dot(args) -> int:
    g = _load_graph(args.graph, args.format)
    td = _load(args.td, parse_td) if args.td else None
    dot = export_dot(g, td)
    if args.output:
        Path(args.output).write_text(dot)
    else:
        print(dot, end="")
    return EXIT_OK


def _add_graph_arg(sub) -> None:
    sub.add_argument("graph", help="input graph file")
    sub.add_argument(
        "--format",
        choices=["gr", "edgelist"],
        default="gr",
        help="input format (default: .gr)",
    )


def _add_solver_flags(sub) -> None:
    sub.add_argument("--decision-limit", type=int, default=None, metavar="N")
    sub.add_argument("--timeout", type=float, default=None, metavar="SECONDS")
    sub.add_argument("--stats", action="store_true", help="print per-step search statistics")
    sub.add_argument("--td-output", metavar="FILE", help="write the witness decomposition")
    sub.add_argument("--dot-output", metavar="FILE", help="write a DOT rendering of the result")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tdsolve", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("decide", help="is there a decomposition with m nodes, width <= w?")
    _add_graph_arg(sub)
    sub.add_argument("--m", type=int, required=True, help="node count")
    sub.add_argument("--w", type=int, required=True, help="width bound")
    sub.add_argument("--path", action="store_true", help="require a path-shaped decomposition")
    _add_solver_flags(sub)
    sub.set_defaults(func=_cmd_decide)

    for name, runner, label in (
        ("treewidth", treewidth, "treewidth"),
        ("pathwidth", pathwidth, "pathwidth"),
    ):
        sub = commands.add_parser(name, help=f"compute the exact {label} with a witness")
        _add_graph_arg(sub)
        _add_solver_flags(sub)
        sub.set_defaults(func=lambda args, r=runner, l=label: _cmd_width(args, r, l))

    sub = commands.add_parser("validate", help="check a .td file against its graph")
    _add_graph_arg(sub)
    sub.add_argument("decomposition", help=".td file to check")
    sub.add_argument("--m", type=int, default=None, help="also check the node count")
    sub.add_argument("--w", type=int, default=None, help="also check the width bound")
    sub.set_defaults(func=_cmd_validate)

    sub = commands.add_parser("oracle", help="brute-force width for small graphs")
    _add_graph_arg(sub)
    sub.add_argument("--pathwidth", action="store_true")
    sub.add_argument("--limit", type=int, default=None, help="vertex-count cap")
    sub.set_defaults(func=_cmd_oracle)

    sub = commands.add_parser("export-dot", help="render a graph (and optional .td) as DOT")
    _add_graph_arg(sub)
    sub.add_argument("--td", metavar="FILE", help="decomposition to draw alongside the graph")
    sub.add_argument("--output", "-o", metavar="FILE", help="write instead of printing")
    sub.set_defaults(func=_cmd_export_dot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INDETERMINATE


if __name__ == "__main__":
    sys.exit(main())
