"""tdsolve benchmark: seeded corpora through parse_gr -> treewidth/pathwidth
-> write_td, one process, one thread, closed loop with one client.

    python3 bench/run.py --workload tw-random-n67 --seed 1 --seconds 30 --trace 0

``--trace 0`` runs whole passes over the corpus, untraced, for about
``--seconds`` (at least one pass) and reports the end-to-end metrics.
``--trace 1`` runs one untraced pass and one traced pass, whatever
``--seconds`` says, and reports the per-layer metrics of the traced pass
with cross-checks against the untraced one. Every answer goes through
the correctness gate, outside the timed span. The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
See bench/README.md for the metric list.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from corpus import WORKLOADS, GraphInput, Workload, build_corpus, fingerprint

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"

# Classes reported even when a later model stops posting them (as zeros),
# so that every run prints the same metric names.
PROPAGATOR_CLASSES = (
    "AtLeastOne",
    "CardinalityAtMost",
    "EdgeInNode",
    "FixValue",
    "ForbidValue",
    "IntersectionOf",
    "LexLeq",
    "ParentDepth",
    "RunningIntersection",
    "SetBitsChannel",
    "UnionEquals",
)

SETUP_REPEATS = 11
SETUP_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "start = time.perf_counter(); import tdsolve; print(time.perf_counter() - start)"
)
WARMUP_GRAPHS = 5


def measure_setup() -> float:
    """Median time to import tdsolve in a fresh interpreter (one warm-up
    import first, which also writes the bytecode cache)."""
    samples = []
    for _ in range(SETUP_REPEATS + 1):
        probe = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC)],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        samples.append(float(probe.stdout))
    return statistics.median(samples[1:])


class Bench:
    def __init__(self, problem: str):
        from tdsolve import Graph, driver, graphio, oracle, validator
        from tdsolve.engine import Status

        self.driver = driver
        self.graphio = graphio
        self.validator = validator
        self.Status = Status
        self.problem = problem
        self.Graph = Graph
        self.brute = oracle.brute_treewidth if problem == "treewidth" else oracle.brute_pathwidth

    def oracle_width(self, item: GraphInput) -> int:
        """Brute-force width, from the generator's edges rather than the parser under test."""
        return self.brute(self.Graph.from_edges(item.n, item.edges)).width

    def solve(self, item: GraphInput):
        """The timed span: .gr text to .td text, as the CLI does it.
        Module attributes are looked up per call so that tracing sees them."""
        g = self.graphio.parse_gr(item.gr)
        result = getattr(self.driver, self.problem)(g)
        return g, result, self.graphio.write_td(result.witness, g)

    def gate(self, g, result, td_text: str, expected: int) -> str | None:
        """Why the answer is wrong, or None. Uses only the oracle, the
        validator and parse_td, never the solver."""
        if result.min_width != expected:
            return f"min_width {result.min_width}, oracle says {expected}"
        steps = result.trace
        if [(s.m, s.w) for s in steps] != [(m, g.n + 1 - m) for m in range(1, len(steps) + 1)]:
            return "steps leave the lockstep (m, w) schedule"
        statuses = [s.status for s in steps]
        sat, unsat = self.Status.SAT, self.Status.UNSAT
        if any(s is not sat for s in statuses[:-1]):
            return f"step statuses {[s.value for s in statuses]}"
        if not (statuses[-1] is unsat or steps[-1].w == 1):
            return f"schedule ended {statuses[-1].value} at w={steps[-1].w}"
        last_sat_w = steps[-1].w if statuses[-1] is sat else steps[-2].w
        if last_sat_w != result.min_width:
            return f"min_width {result.min_width} but last SAT step has w={last_sat_w}"
        try:
            td = self.graphio.parse_td(td_text)
        except self.graphio.ParseError as exc:
            return f"written .td does not parse: {exc}"
        if td.width != expected:
            return f".td width {td.width}, oracle says {expected}"
        violations = self.validator.validate(g, td, expect_w=expected)
        if violations:
            return "written .td is invalid: " + "; ".join(map(str, violations))
        return None

    def run_pass(self, corpus: list[GraphInput], oracle: dict[str, int], record: bool = True) -> dict:
        """Time every graph and gate its answer. With ``record``, also keep
        each graph's step counters (later passes repeat them exactly, and
        keeping them would make peak memory grow with the pass count)."""
        latencies, failures, counters = [], [], {}
        for item in corpus:
            start = time.perf_counter()
            try:
                g, result, td_text = self.solve(item)
            except Exception as exc:  # a failed graph is counted, never fatal
                latencies.append(time.perf_counter() - start)
                failures.append(f"{item.key}: {type(exc).__name__}: {exc}")
                continue
            latencies.append(time.perf_counter() - start)
            reason = self.gate(g, result, td_text, oracle[item.key])
            if reason:
                failures.append(f"{item.key}: {reason}")
            if record:
                counters[item.key] = [
                    [s.m, s.w, s.status.value, s.report.decisions, s.report.propagations, s.report.fails]
                    for s in result.trace
                ]
        return {"wall_s": sum(latencies), "latencies": latencies, "failures": failures, "counters": counters}


def load_counters(path: Path) -> dict:
    if not path.is_file():
        return {}
    return json.loads(path.read_text())["graphs"]


def write_counters(path: Path, workload: Workload, counters: dict) -> None:
    """One graph per line, so that a diff of two snapshots names the graphs."""
    lines = [f"{json.dumps(key)}: {json.dumps(steps)}" for key, steps in sorted(counters.items())]
    head = f'{{"workload": {json.dumps(workload.name)}, "corpus_seed": {workload.corpus_seed},\n"graphs": {{\n'
    path.write_text(head + ",\n".join(lines) + "\n}}\n")


def compare_counters(counters: dict, baseline: dict) -> tuple[int, int]:
    """(graphs compared, graphs whose step counters differ)."""
    shared = [key for key in counters if key in baseline]
    return len(shared), sum(counters[key] != baseline[key] for key in shared)


def harrell_davis(values: list[float], p: float, steps: int = 16) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics (Harrell and Davis, Biometrika 1982).

    tw-random-n67 mixes G(6, 1/2) and G(7, 1/2) graphs, and its median falls
    in a sparse gap between the two; the plain sample median jumps across
    that gap with small timing noise (its spread was 14 % over ten runs in
    which wall_s spread 3 %). The weights integrate the Beta(p(n+1),
    (1-p)(n+1)) density over each order statistic's slice of [0, 1] by the
    midpoint rule, which never evaluates the endpoints where it may diverge.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    width = 1.0 / (n * steps)
    weights = []
    for i in range(n):
        mids = ((i * steps + k + 0.5) * width for k in range(steps))
        weights.append(
            sum(math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta) for x in mids)
        )
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def layer_metrics(tracer, untraced: dict, traced: dict) -> dict:
    m: dict[str, tuple[float, str]] = {}
    calls_total = 0
    for name in sorted(set(PROPAGATOR_CLASSES) | set(tracer.propagators)):
        s = tracer.propagator(name)
        calls_total += s.calls
        idle = s.calls - s.prunes - s.fails
        m[f"propagators.{name}.calls"] = (s.calls, "count")
        m[f"propagators.{name}.idle_ratio"] = (idle / s.calls if s.calls else 0.0, "ratio")
        m[f"propagators.{name}.prunes"] = (s.prunes, "count")
        m[f"propagators.{name}.fails"] = (s.fails, "count")
        m[f"propagators.{name}.self_s"] = (s.self_s, "s")

    steps = [step for graph in traced["counters"].values() for step in graph]
    decisions = sum(step[3] for step in steps)
    propagations = sum(step[4] for step in steps)
    solve, loop = tracer.span("engine.solve"), tracer.span("engine.propagate")
    m["engine.solve_s"] = (solve.total_s, "s")
    m["engine.search_self_s"] = (solve.self_s, "s")
    m["engine.queue_self_s"] = (loop.self_s, "s")
    m["engine.decisions"] = (decisions, "count")
    m["engine.propagations"] = (propagations, "count")
    m["engine.fails"] = (sum(step[5] for step in steps), "count")
    m["engine.propagations_per_decision"] = (propagations / max(decisions, 1), "ratio")

    schedule, decide = tracer.span("driver.schedule"), tracer.span("driver.decide")
    m["driver.schedule_s"] = (schedule.total_s, "s")
    m["driver.self_s"] = (schedule.self_s + decide.self_s, "s")
    m["driver.steps"] = (len(steps), "count")
    m["driver.steps_sat"] = (sum(step[2] == "SAT" for step in steps), "count")
    m["driver.steps_unsat"] = (sum(step[2] == "UNSAT" for step in steps), "count")
    m["driver.final_unsat_share"] = (tracer.final_unsat_s / max(schedule.total_s, 1e-12), "ratio")

    build = tracer.span("model.build")
    m["model.build_s"] = (build.total_s, "s")
    m["model.build_calls"] = (build.calls, "count")
    for key, value in tracer.model_sizes.items():
        m[f"model.{key}"] = (value, "count")
    m["model.extract_s"] = (tracer.span("model.extract").total_s, "s")
    validate = tracer.span("validator.validate")
    m["validator.validate_s"] = (validate.total_s, "s")
    m["validator.calls"] = (validate.calls, "count")
    m["graphio.parse_s"] = (tracer.span("graphio.parse_gr").total_s, "s")
    m["graphio.write_td_s"] = (tracer.span("graphio.write_td").total_s, "s")

    m["check.propagation_calls_diff"] = (abs(calls_total - propagations), "count")
    _, moved = compare_counters(traced["counters"], untraced["counters"])
    m["check.traced_counter_mismatches"] = (moved, "count")
    m["tracing.overhead_ratio"] = (traced["wall_s"] / untraced["wall_s"] - 1.0, "ratio")
    return m


def broken_cross_checks(metrics: dict) -> list[str]:
    """The traced-run cross-checks that do not hold. Each makes the run
    incorrect: the per-layer numbers would not describe the untraced search."""
    return [
        f"cross-check {name} = {metrics[name][0]}, expected 0"
        for name in ("check.propagation_calls_diff", "check.traced_counter_mismatches")
        if metrics[name][0] != 0
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--limit", type=int, help="use only the first N graphs")
    parser.add_argument("--check", type=Path, help="counter baseline to compare with")
    parser.add_argument("--snapshot", type=Path, help="write this run's counters here")
    args = parser.parse_args()

    if not (SRC / "tdsolve" / "__init__.py").is_file():
        print(f"error: no tdsolve sources at {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    from tracer import Tracer

    workload = WORKLOADS[args.workload]
    corpus = build_corpus(workload, args.seed)[: args.limit]
    print(
        f"corpus {workload.name} seed={args.seed} corpus_seed={workload.corpus_seed} "
        f"graphs={len(corpus)} sha256={fingerprint(corpus)}"
    )
    setup_s = measure_setup() if args.trace == 0 else None
    bench = Bench(workload.problem)
    oracle = {item.key: bench.oracle_width(item) for item in corpus}
    for item in corpus[:WARMUP_GRAPHS]:
        try:
            bench.solve(item)
        except Exception:  # the timed pass counts this graph's failure
            pass

    passes = []
    start = time.perf_counter()
    if args.trace == 0:
        longest = 0.0
        while not passes or time.perf_counter() - start + longest <= args.seconds:
            pass_start = time.perf_counter()
            passes.append(bench.run_pass(corpus, oracle, record=not passes))
            longest = max(longest, time.perf_counter() - pass_start)
    else:
        passes.append(bench.run_pass(corpus, oracle))
        with Tracer() as tracer:
            passes.append(bench.run_pass(corpus, oracle))

    attempted = sum(len(p["latencies"]) for p in passes)
    failures = [reason for p in passes for reason in p["failures"]]
    broken = []
    counters = passes[0]["counters"]
    baseline_path = args.check or BENCH_DIR / "baselines" / f"{workload.name}.json"
    compared, mismatched = compare_counters(counters, load_counters(baseline_path))
    print(f"counters: {mismatched} of {compared} graphs differ from {baseline_path.name}")
    if args.snapshot:
        write_counters(args.snapshot, workload, counters)

    if args.trace == 0:
        latencies = [t for p in passes for t in p["latencies"]]
        p50, p90 = (harrell_davis(latencies, q) * 1e3 for q in (0.5, 0.9))
        metrics = {
            "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
            "schedule_ms.p50": (p50, "ms"),
            "schedule_ms.p90": (p90, "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        print(
            f"passes={len(passes)} samples={len(latencies)} "
            f"failed_ratio={len(failures) / attempted}"
        )
    else:
        metrics = layer_metrics(tracer, passes[0], passes[1])
        broken = broken_cross_checks(metrics)
        metrics["gate.failed_ratio"] = (len(failures) / attempted, "ratio")
        metrics["check.counter_graphs"] = (compared, "count")
        metrics["check.counter_mismatches"] = (mismatched, "count")
    for reason in broken + failures[:10]:
        print(f"FAILED {reason}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(
        json.dumps(
            {
                "correct": not failures and not broken,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
