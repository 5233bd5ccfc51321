"""Engine behavior: propagation fixpoint, search, trail, determinism."""

from __future__ import annotations

import random

import pytest

from helpers import snapshot, solutions_within, solved_assignment, tighten_randomly, width_rule
from tdsolve.engine import Inconsistent, Propagator, Solver, Status
from tdsolve.propagators import UnionEquals


class Implies(Propagator):
    """x == 1 implies y == 1, over 0/1 variables."""

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        super().__init__([x, y])
        self.x = x
        self.y = y

    def propagate(self) -> None:
        if self.x.mask == 0b10:
            self.y.assign(1)
        if self.y.mask == 0b01:
            self.x.assign(0)

    def satisfied(self, value_of) -> bool:
        return value_of(self.x) <= value_of(self.y)


def test_forbid_fixes_remaining_value():
    s = Solver()
    x = s.int_var(1, 2)
    x.remove(1)
    assert s.propagate()
    assert x.value() == 2


def test_cardinality_zero_with_required_element_fails():
    s = Solver()
    x = s.set_var(1)
    x.require_mask(0b1)
    s.post(width_rule(s, x, 0))
    assert not s.propagate()


def test_no_constraints_zero_propagations():
    s = Solver()
    s.int_var(0, 3)
    assert s.propagate()
    assert s.propagations == 0


def test_search_single_free_variable():
    s = Solver()
    s.int_var(0, 1)
    report = s.solve(s.int_vars)
    assert report.status is Status.SAT
    assert report.decisions <= 1


def test_search_wipeout_is_unsat():
    s = Solver()
    x = s.set_var(1)
    x.exclude(0)
    s.post(UnionEquals([x], 0b1))
    report = s.solve(s.int_vars)
    assert report.status is Status.UNSAT
    assert report.decisions == 0 and report.fails == 1


def test_search_fixes_set_vars_through_fallback():
    s = Solver()
    x = s.set_var(3)
    s.post(UnionEquals([x], 0b111))
    report = s.solve(s.int_vars)
    assert report.status is Status.SAT
    assert x.value() == frozenset({0, 1, 2})


def test_witness_satisfies_all_constraints():
    s = Solver()
    a = s.set_var(2)
    b = s.set_var(2)
    c = s.set_var(2)
    s.post(UnionEquals([a, b, c], 0b11))
    s.post(width_rule(s, b, 1))
    a.restrict(0b10)
    report = s.solve(decision_vars=[a, b, c])
    assert report.status is Status.SAT
    assert s.check_witness(solved_assignment(s))


def test_min_domain_ties_break_by_position():
    # y before x in the decision list: branching y=0 fixes x by
    # propagation (one decision); picking x first would leave y open
    # after x=0 (two).
    s = Solver()
    x = s.int_var(0, 1)
    y = s.int_var(0, 1)
    s.post(Implies(x, y))
    report = s.solve(decision_vars=[y, x])
    assert report.status is Status.SAT
    assert x.value() == 0 and y.value() == 0
    assert report.decisions == 1


def _dive(s, dvars):
    """The first alternative of every branch down to a full assignment,
    with the number of alternatives it had."""
    taken = []
    while (alternatives := s._branch(dvars)) is not None:
        operation, value = alternatives[0]
        taken.append((operation, value, len(alternatives)))
        operation(value)
        assert s.propagate()
    return taken


def test_decision_set_elements_rank_between_two_and_more_values():
    # every uncovered element of a decision set (one that no decision
    # set requires) is a 0/1 choice: after an integer of two values,
    # before one of three. Element 2, which b requires, is left to the
    # labelling that follows, include first
    s = Solver()
    three = s.int_var(0, 2, "three")
    a = s.set_var(3, "a")
    b = s.set_var(3, "b")
    two = s.int_var(0, 1, "two")
    a.exclude(0)
    b.include(2)
    assert _dive(s, [three, a, b, two]) == [
        (two.assign, 0, 2),
        (b.exclude, 0, 2),
        (a.exclude, 1, 2),
        (b.exclude, 1, 2),
        (three.assign, 0, 3),
        (a.include, 2, 2),
    ]
    assert (a.required, a.possible, b.required, b.possible) == (0b100, 0b100, 0b100, 0b100)


def test_branching_takes_the_uncovered_element_with_fewest_holders():
    # holders per element: 0 is covered by s0 (and undecided in s1, s2),
    # 1 has three holders, 2 and 4 two each, 3 one
    s = Solver()
    sets = [s.set_var(5, f"s{i}") for i in range(3)]
    sets[0].include(0)
    sets[0].exclude(2)
    sets[0].exclude(3)
    sets[1].exclude(3)
    sets[1].exclude(4)
    s0, s1, s2 = sets
    taken = []
    while (alternatives := s._branch(sets)) is not None:
        taken.append(alternatives)
        operation, value = alternatives[-1]
        operation(value)  # include, which covers the element
    assert taken[:4] == [
        [(s2.exclude, 3), (s2.include, 3)],  # fewest holders
        [(s1.exclude, 2), (s1.include, 2)],  # a tie of two: lowest index
        [(s0.exclude, 4), (s0.include, 4)],
        [(s0.exclude, 1), (s0.include, 1)],  # first set that can hold it
    ]
    # every element is covered: the labelling fallback, include first
    assert all(alts[0][0].__name__ == "include" for alts in taken[4:])


def test_branching_agrees_with_a_straight_count_of_holders():
    # the holder counts are bit-sliced; eleven sets give counts of up to
    # four bits
    rng = random.Random(5)
    for _ in range(200):
        s = Solver()
        sets = [s.set_var(6) for _ in range(11)]
        tighten_randomly(s, rng)
        for x in sets:
            x.required &= rng.choice((0, 0, 0, -1))
        holders = [sum(x.undecided() >> e & 1 for x in sets) for e in range(6)]
        covered = [any(x.required >> e & 1 for x in sets) for e in range(6)]
        open_ = [e for e in range(6) if holders[e] and not covered[e]]
        alternatives = s._branch(sets)
        if not open_:
            assert alternatives is None or alternatives[0][0].__name__ == "include"
            continue
        e = min(open_, key=lambda e: (holders[e], e))
        first = next(x for x in sets if x.undecided() >> e & 1)
        assert alternatives == [(first.exclude, e), (first.include, e)]


def test_decision_limit_returns_indeterminate():
    s = Solver()
    for _ in range(8):
        s.int_var(0, 1)
    report = s.solve(s.int_vars, decision_limit=0)
    assert report.status is Status.INDETERMINATE


def test_fixpoint_idempotent():
    s = Solver()
    xs = [s.set_var(3) for _ in range(2)]
    s.post(UnionEquals(xs, 0b111))
    s.post(width_rule(s, xs[0], 1))
    assert s.propagate()
    before = snapshot(s)
    for prop in s.propagators:
        s._wake([prop])
    assert s.propagate()
    assert snapshot(s) == before


class DropTop(Propagator):
    """Removes the largest value of x while x has more than one: each
    call makes one change, which wakes it again."""

    __slots__ = ("x", "calls")

    def __init__(self, x):
        super().__init__([x])
        self.x = x
        self.calls = 0

    def propagate(self) -> None:
        self.calls += 1
        if not self.x.is_fixed():
            self.x.remove(self.x.mask.bit_length() - 1)


class DropTopOnce(DropTop):
    """DropTop declared idempotent: its own change no longer wakes it."""

    __slots__ = ()
    idempotent = True


def test_an_idempotent_propagator_is_not_woken_by_its_own_changes():
    for cls, calls, left in ((DropTop, 4, 0b1), (DropTopOnce, 1, 0b111)):
        s = Solver()
        x = s.int_var(0, 3)
        prop = cls(x)
        s.post(prop)
        assert s.propagate()
        assert (prop.calls, x.mask, prop.queued) == (calls, left, False)
    # another propagator's change still wakes it
    s = Solver()
    x = s.int_var(0, 3)
    props = [DropTopOnce(x), DropTopOnce(x)]
    for prop in props:
        s.post(prop)
    assert s.propagate()
    assert [prop.calls for prop in props] == [2, 2] and x.value() == 0


class Fail(Propagator):
    __slots__ = ()
    idempotent = True

    def propagate(self) -> None:
        raise Inconsistent


def test_a_failed_propagation_clears_every_queued_mark():
    s = Solver()
    x = s.int_var(0, 3)
    props = [Fail(), DropTop(x), DropTopOnce(x)]
    for prop in props:
        s.post(prop)
    assert not s.propagate()
    assert not s._queue and not any(prop.queued for prop in props)
    s._wake([props[0]])
    assert props[0].queued and not s.propagate()


def _random_micro_model(rng):
    s = Solver()
    ints = [s.int_var(0, rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
    sets = [s.set_var(rng.randint(1, 3)) for _ in range(rng.randint(1, 2))]
    tighten_randomly(s, rng)
    bits = [v for v in ints if v.mask & ~0b11 == 0]
    if len(bits) >= 2 and rng.random() < 0.7:
        s.post(Implies(bits[0], bits[1]))
    if rng.random() < 0.7:
        s.post(width_rule(s, sets[0], rng.randint(0, 2)))
    if len(sets) >= 2 and rng.random() < 0.5:
        s.post(UnionEquals(sets, sets[0].possible | sets[1].possible))
    # value removals and assignments that would empty a domain at build
    # time are skipped: an empty domain cannot be represented
    if rng.random() < 0.5:
        v = rng.randint(0, 3)
        if ints[0].mask != 1 << v:
            ints[0].remove(v)
    if rng.random() < 0.3:
        v = rng.randint(0, 3)
        if v in ints[-1].domain():
            ints[-1].assign(v)
    return s


def test_search_complete_against_enumeration():
    rng = random.Random(4242)
    for _ in range(150):
        s = _random_micro_model(rng)
        ints, sets = snapshot(s)
        expected = bool(solutions_within(s, ints, sets))
        report = s.solve(s.int_vars)
        assert (report.status is Status.SAT) == expected
        if report.status is Status.SAT:
            assert s.check_witness(solved_assignment(s))


def test_trail_restores_bounds_exactly():
    rng = random.Random(99)
    for _ in range(300):
        s = _random_micro_model(rng)
        if not s.propagate():
            continue
        marks = [s._mark()]
        states = [snapshot(s)]
        for _ in range(rng.randint(1, 6)):
            choice = rng.random()
            unfixed_ints = [v for v in s.int_vars if not v.is_fixed()]
            open_sets = [v for v in s.set_vars if v.undecided()]
            if choice < 0.5 and unfixed_ints:
                var = rng.choice(unfixed_ints)
                var.assign(rng.choice(var.domain()))
            elif open_sets:
                svar = rng.choice(open_sets)
                undecided = svar.undecided()
                elems = [i for i in range(undecided.bit_length()) if undecided >> i & 1]
                e = rng.choice(elems)
                if rng.random() < 0.5:
                    svar.include(e)
                else:
                    svar.exclude(e)
            else:
                break
            s.propagate()
            marks.append(s._mark())
            states.append(snapshot(s))
        # unwind to a random prefix and compare
        back_to = rng.randrange(len(marks))
        s._undo_to(marks[back_to])
        assert snapshot(s) == states[back_to]
        s._undo_to(marks[0])
        assert snapshot(s) == states[0]


def test_deterministic_statistics():
    def run():
        s = Solver()
        xs = [s.set_var(4) for _ in range(3)]
        s.post(UnionEquals(xs, 0b1111))
        for x in xs:
            s.post(width_rule(s, x, 2))
        report = s.solve(s.int_vars)
        return report.status, report.decisions, report.propagations, report.fails

    assert run() == run()


def test_bad_domain_rejected():
    s = Solver()
    with pytest.raises(ValueError):
        s.int_var(2, 1)
    with pytest.raises(ValueError):
        s.int_var(-1, 1)
    with pytest.raises(ValueError):
        s.set_var(-2)
