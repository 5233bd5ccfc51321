"""Micro constraint-propagation engine: trailed variables, a FIFO
propagation queue, and chronological depth-first search.

Domains are bitmasks over small nonnegative integers, so bound updates,
trailing, and restoration are single integer operations. An integer
variable holds one mask (its current domain); a set variable holds two
(``required`` elements certainly in the set, ``possible`` elements not
yet excluded), each with its own watcher list, so a propagator that
reads only one bound is not woken by changes to the other. All engine
iteration is in ascending value order, which makes runs deterministic.

A model is a reference cycle until ``Solver.unlink`` ends it: its
propagators and solver are then freed at once, not by the cyclic
collector, and its variables keep their values.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Iterable
from enum import Enum


class Inconsistent(Exception):
    """Internal signal: a domain or bound emptied. Never escapes the engine."""


def bits_of(mask: int) -> list[int]:
    """Values of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class IntVar:
    """Finite-domain integer variable over nonnegative values."""

    __slots__ = ("solver", "index", "name", "mask", "watchers")

    def __init__(self, solver: "Solver", index: int, mask: int, name: str):
        if mask == 0:
            raise ValueError(f"variable {name or index} created with empty domain")
        self.solver = solver
        self.index = index
        self.name = name
        self.mask = mask
        self.watchers: list["Propagator"] = []

    def __repr__(self) -> str:
        return f"IntVar({self.name or self.index}, domain={bits_of(self.mask)})"

    def is_fixed(self) -> bool:
        return self.mask & (self.mask - 1) == 0

    def value(self) -> int:
        if not self.is_fixed():
            raise ValueError(f"{self!r} is not fixed")
        return self.mask.bit_length() - 1

    def domain(self) -> list[int]:
        return bits_of(self.mask)

    # Mutations. Each trails the old mask and wakes the watchers.

    def _set_mask(self, new_mask: int) -> None:
        if new_mask == self.mask:
            return
        if new_mask == 0:
            raise Inconsistent
        self.solver._trail.append((self, self.mask))
        self.mask = new_mask
        self.solver._wake(self.watchers)

    def _restore(self, saved: int) -> None:
        self.mask = saved

    def remove(self, v: int) -> None:
        if 0 <= v:
            self._set_mask(self.mask & ~(1 << v))

    def assign(self, v: int) -> None:
        bit = 1 << v
        if self.mask & bit == 0:
            raise Inconsistent
        self._set_mask(bit)

    def intersect(self, mask: int) -> None:
        self._set_mask(self.mask & mask)


class SetVar:
    """Set variable with subset bounds over universe {0..n-1}."""

    __slots__ = (
        "solver",
        "index",
        "name",
        "required",
        "possible",
        "universe",
        "required_watchers",
        "possible_watchers",
    )

    def __init__(self, solver: "Solver", index: int, universe: int, name: str):
        self.solver = solver
        self.index = index
        self.name = name
        self.required = 0
        self.possible = universe
        self.universe = universe
        # Woken when ``required`` grows / when ``possible`` shrinks.
        self.required_watchers: list["Propagator"] = []
        self.possible_watchers: list["Propagator"] = []

    def __repr__(self) -> str:
        return (
            f"SetVar({self.name or self.index}, "
            f"required={bits_of(self.required)}, possible={bits_of(self.possible)})"
        )

    def is_fixed(self) -> bool:
        return self.required == self.possible

    def value(self) -> frozenset[int]:
        if not self.is_fixed():
            raise ValueError(f"{self!r} is not fixed")
        return frozenset(bits_of(self.required))

    def _store(self) -> None:
        self.solver._trail.append((self, (self.required, self.possible)))

    def _restore(self, saved: tuple[int, int]) -> None:
        self.required, self.possible = saved

    def require_mask(self, mask: int) -> None:
        """Force every element of mask into the set."""
        new_req = self.required | mask
        if new_req == self.required:
            return
        if new_req & ~self.possible:
            raise Inconsistent
        self._store()
        self.required = new_req
        self.solver._wake(self.required_watchers)

    def restrict(self, mask: int) -> None:
        """Exclude everything outside mask."""
        new_pos = self.possible & mask
        if new_pos == self.possible:
            return
        if self.required & ~new_pos:
            raise Inconsistent
        self._store()
        self.possible = new_pos
        self.solver._wake(self.possible_watchers)

    def include(self, e: int) -> None:
        self.require_mask(1 << e)

    def exclude(self, e: int) -> None:
        self.restrict(~(1 << e))

    def undecided(self) -> int:
        """Mask of elements possible but not yet required."""
        return self.possible & ~self.required


class Propagator:
    """A filtering procedure attached to the variables it observes.

    Subclasses implement ``propagate`` (prune or raise Inconsistent) and
    ``satisfied`` (a straight-line check of the constraint on a full
    assignment, used to audit witnesses independently of the filtering
    code). Filtering must be sound and must reach a fixpoint under
    re-invocation.

    Subscriptions: every variable in ``watch`` wakes the propagator on
    any change (a set variable on either bound). A set variable listed
    only in ``required`` or only in ``possible`` wakes it only when that
    bound changes. A propagator may leave out a set event only when that
    event can never enable new pruning by it: leaving out one it needs
    stops propagation short of the fixpoint.

    A propagator whose single call reaches its own fixpoint declares
    itself ``idempotent``: the changes it makes then do not wake it
    again (Schulte & Stuckey, ACM TOPLAS 31(1), 2008).
    """

    __slots__ = ("queued",)
    idempotent = False

    def __init__(
        self,
        watch: Iterable[IntVar | SetVar] = (),
        required: Iterable[SetVar] = (),
        possible: Iterable[SetVar] = (),
    ):
        self.queued = False
        for var in watch:
            if isinstance(var, SetVar):
                var.required_watchers.append(self)
                var.possible_watchers.append(self)
            else:
                var.watchers.append(self)
        for var in required:
            var.required_watchers.append(self)
        for var in possible:
            var.possible_watchers.append(self)

    def propagate(self) -> None:
        raise NotImplementedError

    def satisfied(self, value_of) -> bool:
        raise NotImplementedError


class Status(Enum):
    SAT = "SAT"
    UNSAT = "UNSAT"
    INDETERMINATE = "INDETERMINATE"


class SolveReport:
    __slots__ = ("status", "decisions", "propagations", "fails", "elapsed")

    def __init__(
        self,
        status: Status,
        decisions: int,
        propagations: int,
        fails: int,
        elapsed: float,
    ) -> None:
        self.status = status
        self.decisions = decisions
        self.propagations = propagations
        self.fails = fails
        self.elapsed = elapsed


class Solver:
    """Owns variables, propagators, trail, and search state.

    Single-threaded during search; independent instances do not share
    anything and may run concurrently. ``unlink`` ends a decided model:
    its variables keep their masks, so a solved one still reads.
    """

    def __init__(self) -> None:
        self.int_vars: list[IntVar] = []
        self.set_vars: list[SetVar] = []
        self.propagators: list[Propagator] = []
        self._trail: list = []
        self._queue: deque[Propagator] = deque()
        self.decisions = 0
        self.propagations = 0
        self.fails = 0

    # Variable and constraint construction.

    def int_var(self, lo: int, hi: int, name: str = "") -> IntVar:
        if lo < 0 or hi < lo:
            raise ValueError(f"bad integer domain [{lo}, {hi}]")
        mask = ((1 << (hi - lo + 1)) - 1) << lo
        var = IntVar(self, len(self.int_vars), mask, name)
        self.int_vars.append(var)
        return var

    def set_var(self, universe_size: int, name: str = "") -> SetVar:
        if universe_size < 0:
            raise ValueError("universe size must be nonnegative")
        var = SetVar(self, len(self.set_vars), (1 << universe_size) - 1, name)
        self.set_vars.append(var)
        return var

    def post(self, prop: Propagator) -> None:
        """Add prop and queue it, like any woken propagator."""
        self.propagators.append(prop)
        self._wake([prop])

    # Propagation machinery.

    def _wake(self, watchers: list[Propagator]) -> None:
        for prop in watchers:
            if not prop.queued:
                prop.queued = True
                self._queue.append(prop)

    def propagate(self) -> bool:
        """Run the queue to fixpoint. False means inconsistent."""
        queue = self._queue
        try:
            while queue:
                prop = queue.popleft()
                # an idempotent one stays marked while it runs, so that
                # its own changes do not queue it again
                prop.queued = prop.idempotent
                self.propagations += 1
                prop.propagate()
                prop.queued = False
        except Inconsistent:
            prop.queued = False
            for other in queue:
                other.queued = False
            queue.clear()
            return False
        return True

    # Trail.

    def _mark(self) -> int:
        return len(self._trail)

    def _undo_to(self, mark: int) -> None:
        trail = self._trail
        while len(trail) > mark:
            var, saved = trail.pop()
            var._restore(saved)

    # Search.

    def solve(
        self,
        decision_vars: list[IntVar | SetVar],
        decision_limit: int | None = None,
        timeout: float | None = None,
    ) -> SolveReport:
        """Depth-first search with propagation to fixpoint at every node.

        Branches on the decision variables first. An integer one offers
        its values ascending; a set one offers each undecided element as
        a 0/1 choice, exclusion first, which ranks like a domain of two
        values. The choice with the smallest domain goes first, ties by
        position. A set element is a choice only while no decision set
        requires it; among those, the one that the fewest decision sets
        can still hold goes first, the lowest on ties, in the first set
        where it is undecided (fail first: Haralick & Elliott, Artif.
        Intell. 14, 1980). Once the integers are fixed and every element
        is covered, it branches on set membership (include before
        exclude, lowest variable and element first) until every variable
        is fixed. A decision calls the chosen alternative's operation on
        its value.
        Returns SAT at the first full assignment and leaves every variable
        fixed to it, so the solved model is its own witness; UNSAT after
        exhausting the tree, or INDETERMINATE when a limit is hit. With a
        decision limit of 0 it only confirms what propagation alone fixes.
        """
        self.decisions = 0
        self.propagations = 0
        self.fails = 0
        start = time.perf_counter()

        def report(status: Status) -> SolveReport:
            return SolveReport(
                status=status,
                decisions=self.decisions,
                propagations=self.propagations,
                fails=self.fails,
                elapsed=time.perf_counter() - start,
            )

        if not self.propagate():
            self.fails += 1
            return report(Status.UNSAT)

        # A frame is [trail mark, alternatives, index of the next one to try].
        frames: list[list] = []
        while True:
            alternatives = self._branch(decision_vars)
            if alternatives is None:
                return report(Status.SAT)
            if decision_limit is not None and self.decisions >= decision_limit:
                return report(Status.INDETERMINATE)
            if timeout is not None and time.perf_counter() - start > timeout:
                return report(Status.INDETERMINATE)
            frames.append([self._mark(), alternatives, 0])

            descended = False
            while frames and not descended:
                mark, alts, idx = frames[-1]
                self.decisions += 1
                operation, value = alts[idx]
                operation(value)
                if self.propagate():
                    descended = True
                else:
                    self.fails += 1
                    while frames:
                        frame = frames[-1]
                        self._undo_to(frame[0])
                        frame[2] += 1
                        if frame[2] < len(frame[1]):
                            break
                        frames.pop()
            if not descended:
                return report(Status.UNSAT)

    def _branch(self, dvars: list[IntVar | SetVar]):
        """Alternatives at this node as (operation, value) pairs, each
        operation a bound ``assign``, ``include`` or ``exclude`` of the
        chosen variable, or None when everything is fixed."""
        chosen = None
        best_size = None
        open_elements = 0  # undecided in some decision set
        covered = 0  # required by some decision set
        # bit i of each element's count of the decision sets it is
        # undecided in (a bit-sliced counter)
        holders: list[int] = []
        for var in dvars:
            if type(var) is SetVar:
                required = var.required
                carry = var.possible & ~required
                open_elements |= carry
                covered |= required
                i = 0
                while carry:  # add the set's undecided elements to the count
                    if i == len(holders):
                        holders.append(carry)
                        break
                    bit = holders[i]
                    holders[i] = bit ^ carry
                    carry &= bit
                    i += 1
                continue
            size = var.mask.bit_count()
            if size > 1 and (best_size is None or size < best_size):
                chosen = var
                best_size = size
        uncovered = open_elements & ~covered
        if uncovered and best_size != 2:
            # fewest holders first: from the top bit of the count down,
            # keep the elements whose bit is clear, if any are
            for bit in reversed(holders):
                if uncovered & ~bit:
                    uncovered &= ~bit
            low = uncovered & -uncovered
            e = low.bit_length() - 1
            for var in dvars:
                if type(var) is SetVar and var.possible & ~var.required & low:
                    return [(var.exclude, e), (var.include, e)]
        if chosen is None:
            for svar in self.set_vars:
                undecided = svar.undecided()
                if undecided:
                    e = (undecided & -undecided).bit_length() - 1
                    return [(svar.include, e), (svar.exclude, e)]
            chosen = next((var for var in self.int_vars if not var.is_fixed()), None)
            if chosen is None:
                return None
        return [(chosen.assign, v) for v in chosen.domain()]

    def check_witness(self, witness: dict) -> bool:
        """Audit an assignment against every posted constraint's semantics.

        Uses each propagator's straight-line ``satisfied`` check, not its
        filtering code.
        """
        return all(prop.satisfied(witness.__getitem__) for prop in self.propagators)

    def unlink(self) -> None:
        """Break the model's reference cycles: empty every watcher list,
        the variable and propagator lists, the trail and the queue. The
        variables keep their values."""
        for var in self.int_vars:
            var.watchers.clear()
        for svar in self.set_vars:
            svar.required_watchers.clear()
            svar.possible_watchers.clear()
        for held in (self.int_vars, self.set_vars, self.propagators, self._trail, self._queue):
            held.clear()
