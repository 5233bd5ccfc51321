"""Outside-in tracing of tdsolve's layers, from the benchmark's own files.

``Tracer`` replaces the public entry points of each layer with timing
wrappers while it is entered, and puts the originals back on exit.
Nothing under ``src/`` changes. Spans nest: a wrapped call's self time
is its duration minus the time spent in wrapped calls it made.

Layer boundaries (span names):

- ``driver.schedule``: ``treewidth``/``pathwidth``; ``driver.decide``:
  one schedule step.
- ``model.build``, ``model.extract``: ``build_model`` and
  ``extract_decomposition`` as the driver calls them.
- ``engine.solve``, ``engine.propagate``: ``Solver.solve`` and the
  fixpoint loop ``Solver.propagate``.
- ``propagators.<Class>``: ``propagate`` of every propagator class. A
  call that raises ``Inconsistent`` is a fail; one that grows the
  solver's trail (every domain change is trailed) is a prune; any other
  call is idle.
- ``validator.validate`` (from the driver and from ``write_td``),
  ``graphio.parse_gr``, ``graphio.write_td``.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass

from tdsolve import driver, engine, graphio, model, propagators, validator


@dataclass
class Span:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class PropagatorStats:
    calls: int = 0
    prunes: int = 0
    fails: int = 0
    self_s: float = 0.0  # propagators call no wrapped code, so self time is all of it


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, Span] = {}
        self.propagators: dict[str, PropagatorStats] = {}
        self.model_sizes = {"int_vars": 0, "set_vars": 0, "propagators": 0}
        self.final_unsat_s = 0.0
        self._children: list[float] = []  # time in wrapped callees, per open span
        self._trail: list = []
        self._last_step: tuple[engine.Status, float] | None = None
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        validate = self._timed("validator.validate", validator.validate)
        self._patch(driver, "validate", validate)
        self._patch(graphio, "validate", validate)
        self._patch(graphio, "parse_gr", self._timed("graphio.parse_gr", graphio.parse_gr))
        self._patch(graphio, "write_td", self._timed("graphio.write_td", graphio.write_td))
        self._patch(driver, "build_model", self._timed("model.build", model.build_model, self._on_build))
        extract = self._timed("model.extract", model.extract_decomposition)
        self._patch(driver, "extract_decomposition", extract)
        self._patch(driver, "decide", self._timed("driver.decide", driver.decide, self._on_step))
        for name in ("treewidth", "pathwidth"):
            schedule = self._timed("driver.schedule", getattr(driver, name), self._on_schedule)
            self._patch(driver, name, schedule)
        self._patch(engine.Solver, "solve", self._timed("engine.solve", engine.Solver.solve))
        loop = self._timed("engine.propagate", engine.Solver.propagate)

        def propagate(solver):
            self._trail = solver._trail
            return loop(solver)

        self._patch(engine.Solver, "propagate", propagate)
        classes = [
            cls
            for _, cls in inspect.getmembers(propagators, inspect.isclass)
            if issubclass(cls, engine.Propagator) and cls is not engine.Propagator
        ]
        originals = [(cls, cls.propagate) for cls in classes]  # before any is wrapped
        for cls, original in originals:
            self._patch(cls, "propagate", self._traced_propagator(cls.__name__, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def _patch(self, owner, name: str, replacement) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def _timed(self, name: str, fn, on_return=None):
        span = self.spans.setdefault(name, Span())
        children = self._children
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = children.pop()
                span.calls += 1
                span.total_s += elapsed
                span.self_s += elapsed - inner
                if children:
                    children[-1] += elapsed
            if on_return is not None:
                on_return(result, elapsed)
            return result

        return wrapper

    def _traced_propagator(self, name: str, original):
        stats = self.propagators.setdefault(name, PropagatorStats())
        children = self._children
        clock = time.perf_counter
        inconsistent = engine.Inconsistent

        def propagate(prop):
            trail = self._trail
            before = len(trail)
            start = clock()
            try:
                original(prop)
            except inconsistent:
                elapsed = clock() - start
                stats.fails += 1
                stats.calls += 1
                stats.self_s += elapsed
                children[-1] += elapsed
                raise
            elapsed = clock() - start
            if len(trail) != before:
                stats.prunes += 1
            stats.calls += 1
            stats.self_s += elapsed
            children[-1] += elapsed  # always inside the engine.propagate span

        return propagate

    def _on_build(self, mi, elapsed: float) -> None:
        self.model_sizes["int_vars"] += len(mi.solver.int_vars)
        self.model_sizes["set_vars"] += len(mi.solver.set_vars)
        self.model_sizes["propagators"] += len(mi.solver.propagators)

    def _on_step(self, step, elapsed: float) -> None:
        self._last_step = (step.status, elapsed)

    def _on_schedule(self, result, elapsed: float) -> None:
        status, step_s = self._last_step
        if status is engine.Status.UNSAT:
            self.final_unsat_s += step_s

    def span(self, name: str) -> Span:
        return self.spans.get(name, Span())

    def propagator(self, name: str) -> PropagatorStats:
        return self.propagators.get(name, PropagatorStats())
