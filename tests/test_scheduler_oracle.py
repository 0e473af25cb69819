"""Differential oracle for the scheduler.

The scheduler's whole contract is *order*: entries — events and
scheduled calls alike — process in global ``(when, tiebreak)`` order,
however an entry was scheduled and however the loop was last left.  ``HeapScheduler`` below is the independent
statement of that contract — it shares nothing with
:class:`repro.sim.Simulator` but the tie perturbation; random programs
must leave the identical ``(now, label)`` trace on both.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from math import inf

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.clock import EmptySchedule, Simulator, _perturbed_ties

#: A delay far beyond any round trip (the retransmission-timer range).
HORIZON = 4096.0


class HeapEvent:
    def __init__(self, sched: "HeapScheduler") -> None:
        self.sched, self.callbacks, self.processed = sched, [], False

    def succeed(self) -> None:
        self.sched._push(self.sched.now, self)


class HeapScheduler:
    """The reference: one heap of ``(when, tie, fn, arg)``, where a
    call runs ``fn(arg)`` and an event's entry has fn None."""

    def __init__(self) -> None:
        self.now, self._heap, self._ties = 0.0, [], count()

    def _push(self, when: float, event: HeapEvent) -> None:
        heappush(self._heap, (when, next(self._ties), None, event))

    def call_at(self, when: float, fn, arg) -> None:
        heappush(self._heap, (when, next(self._ties), fn, arg))

    def event(self) -> HeapEvent:
        return HeapEvent(self)

    def timeout(self, delay: float) -> HeapEvent:
        event = HeapEvent(self)
        self._push(self.now + delay, event)
        return event

    def delayed_call(self, delay: float, fn) -> None:
        self.call_at(self.now + delay, lambda _arg: fn(), None)

    def perturb_ties(self, seed: int | None) -> None:
        self._ties = count() if seed is None else _perturbed_ties(seed)
        entries, self._heap = sorted(self._heap), []
        for when, _tie, fn, arg in entries:
            heappush(self._heap, (when, next(self._ties), fn, arg))

    def _process(self) -> tuple:
        entry = self.now, _tie, fn, arg = heappop(self._heap)
        if fn is not None:
            fn(arg)
            return entry
        arg.processed = True
        callbacks, arg.callbacks = arg.callbacks, []
        for callback in callbacks:
            callback(arg)
        return entry

    def step(self) -> None:
        if not self._heap:
            raise EmptySchedule()
        self._process()

    def run(self, until=None) -> None:
        sentinel = until if isinstance(until, HeapEvent) else None
        deadline = inf if isinstance(until, (HeapEvent, type(None))) else until
        if sentinel is not None and sentinel.processed:
            return
        while self._heap and self._heap[0][0] <= deadline:
            _when, _tie, fn, arg = self._process()
            if fn is None and arg is sentinel:
                return
        if deadline != inf:
            self.now = deadline


class Boom(Exception):
    """The injected callback failure."""


# Delays on a 0.25 µs grid (exact floats, plenty of ties): the current
# instant, the next few microseconds, and far-future timers.
DELAYS = st.sampled_from(
    [0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.25, 7.0,
     HORIZON - 0.25, HORIZON + 0.5, 2.0 * HORIZON + 0.25]
)
SEEDS = st.one_of(st.none(), st.integers(0, 7))

# (kind, delay, children): schedule one entry whose step logs, schedules
# its children and, for kinds "raise" and "raise_at", then raises.  An
# "at" or "raise_at" entry is a call filed with ``call_at``, a "call"
# one with ``delayed_call``; the others are events.
KINDS = st.sampled_from(
    ["timeout", "call", "at", "succeed", "raise", "raise_at"])
ACTIONS = st.recursive(
    st.tuples(KINDS, DELAYS, st.just(())),
    lambda children: st.tuples(
        KINDS, DELAYS, st.lists(children, min_size=1, max_size=3).map(tuple)),
    max_leaves=8,
)
COMMANDS = st.one_of(
    st.tuples(st.just("schedule"), ACTIONS),
    st.tuples(st.just("step"), st.none()),
    st.tuples(st.just("run"), st.none()),
    st.tuples(st.just("run_for"), DELAYS),
    st.tuples(st.just("run_event"), st.integers(0, 63)),
    st.tuples(st.just("perturb"), SEEDS),
)


def trace_of(sched, program) -> list:
    """Interpret *program* on *sched*; return everything observable."""
    trace: list = []
    created: list = []
    labels = count()

    def schedule(action) -> None:
        kind, delay, children = action
        label = next(labels)

        def fire(_event=None) -> None:
            trace.append((sched.now, label))
            for child in children:
                schedule(child)
            if kind in ("raise", "raise_at"):
                raise Boom(label)

        if kind == "call":
            sched.delayed_call(delay, fire)
        elif kind in ("at", "raise_at"):
            sched.call_at(sched.now + delay, fire, None)
        else:
            event = sched.event() if kind == "succeed" else sched.timeout(delay)
            event.callbacks.append(fire)
            if kind == "succeed":
                event.succeed()
            created.append(event)

    def command(op, arg) -> None:
        if op == "schedule":
            schedule(arg)
        elif op == "step":
            sched.step()
        elif op == "run":
            sched.run()
        elif op == "run_for":
            sched.run(until=sched.now + arg)
        elif op == "run_event" and created:
            sched.run(until=created[arg % len(created)])
        elif op == "perturb":
            sched.perturb_ties(arg)

    def attempt(op, arg) -> bool:
        try:
            command(op, arg)
        except (Boom, EmptySchedule) as stop:
            trace.append((sched.now, type(stop).__name__))
            return False
        finally:
            trace.append(("now", sched.now))
        return True

    for op, arg in program:
        attempt(op, arg)
    while not attempt("run", None):
        pass  # flush what the program left queued, one failure at a time
    return trace


T, C, A, S, R, RA = "timeout", "call", "at", "succeed", "raise", "raise_at"


@given(st.lists(COMMANDS, max_size=24))
@settings(max_examples=400, deadline=None)
# Idle scheduling between entries that a deadline left queued, then
# single steps through them and out to a far-future timer.
@example([("schedule", (T, 0.25, ())), ("schedule", (T, 0.75, ())),
          ("schedule", (C, HORIZON + 0.5, ((T, 0.25, ()),))),
          ("run_for", 0.5), ("schedule", (S, 0.0, ((T, 0.0, ()),))),
          ("schedule", (T, 0.25, ())), ("step", None), ("step", None),
          ("step", None), ("step", None), ("step", None), ("step", None)])
# A raising callback with later entries queued, idle scheduling among
# them, a mid-way re-key, and a sentinel scheduled by a callback.
@example([("schedule", (T, 1.25, ((C, 0.25, ()), (S, 0.0, ()), (R, 0.5, ())))),
          ("schedule", (T, 1.75, ())), ("schedule", (T, 1.5, ())),
          ("run", None), ("schedule", (T, 0.0, ())), ("perturb", 3),
          ("schedule", (T, 0.0, ((T, 0.0, ()), (T, 0.0, ())))),
          ("run_event", 1), ("perturb", None), ("run_for", 1.0)])
# Calls and events filed at one instant, in and out of a running loop,
# a raising call with entries still queued, single steps through calls,
# and a re-key with calls queued.
@example([("schedule", (A, 0.5, ((T, 0.0, ()), (A, 0.0, ()), (S, 0.0, ())))),
          ("schedule", (T, 0.5, ())), ("schedule", (C, 0.5, ())),
          ("schedule", (RA, 0.5, ((A, 0.0, ()),))), ("perturb", 5),
          ("schedule", (A, 0.5, ())), ("step", None), ("step", None),
          ("run_event", 0), ("perturb", None), ("step", None),
          ("run_for", 0.25), ("run", None)])
def test_random_programs_trace_like_the_reference_heap(program):
    assert trace_of(Simulator(), program) == trace_of(HeapScheduler(), program)
