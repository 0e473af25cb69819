"""Differential oracle for the scheduler.

The scheduler's whole contract is *order*: events process in global
``(when, tiebreak)`` order, however an entry was scheduled and however
the loop was last left.  ``HeapScheduler`` below is the independent
statement of that contract — it shares nothing with
:class:`repro.sim.Simulator` but the tie perturbation; random programs
must leave the identical ``(now, label)`` trace on both.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from math import inf

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.sim import TIMED_OUT, Store
from repro.sim.clock import EmptySchedule, Simulator, _perturbed_ties
from repro.sim.events import Event
from repro.sim.resources import _DeadlineGet

#: A delay far beyond any round trip (the retransmission-timer range).
HORIZON = 4096.0


class HeapEvent:
    def __init__(self, sched: "HeapScheduler") -> None:
        self.sched, self.callbacks, self.processed = sched, [], False

    def succeed(self) -> None:
        self.sched._push(self.sched.now, self)


class HeapScheduler:
    """The reference: one heap of ``(when, tie, event)``."""

    def __init__(self) -> None:
        self.now, self._heap, self._ties = 0.0, [], count()

    def _push(self, when: float, event: HeapEvent) -> None:
        heappush(self._heap, (when, next(self._ties), event))

    def event(self) -> HeapEvent:
        return HeapEvent(self)

    def timeout(self, delay: float) -> HeapEvent:
        event = HeapEvent(self)
        self._push(self.now + delay, event)
        return event

    def delayed_call(self, delay: float, fn) -> HeapEvent:
        event = self.timeout(delay)
        event.callbacks.append(lambda _event: fn())
        return event

    def perturb_ties(self, seed: int | None) -> None:
        self._ties = count() if seed is None else _perturbed_ties(seed)
        entries, self._heap = sorted(self._heap), []
        for when, _tie, event in entries:
            self._push(when, event)

    def step(self) -> None:
        if not self._heap:
            raise EmptySchedule()
        self.run(self._heap[0][2])

    def run(self, until=None) -> None:
        sentinel = until if isinstance(until, HeapEvent) else None
        deadline = inf if isinstance(until, (HeapEvent, type(None))) else until
        if sentinel is not None and sentinel.processed:
            return
        while self._heap and self._heap[0][0] <= deadline:
            self.now, _tie, event = heappop(self._heap)
            event.processed = True
            callbacks, event.callbacks = event.callbacks, []
            for callback in callbacks:
                callback(event)
            if event is sentinel:
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

# (kind, delay, children): schedule one event whose callback logs,
# schedules its children and, for kind "raise", then raises.
KINDS = st.sampled_from(["timeout", "call", "succeed", "raise"])
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
            if kind == "raise":
                raise Boom(label)

        if kind == "call":
            created.append(sched.delayed_call(delay, fire))
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


T, C, S, R = "timeout", "call", "succeed", "raise"


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
def test_random_programs_trace_like_the_reference_heap(program):
    assert trace_of(Simulator(), program) == trace_of(HeapScheduler(), program)


# ----------------------------------------------------------------------
# Differential oracle for message delivery
# ----------------------------------------------------------------------
class TwoEventStore(Store):
    """The reference receive: every wake is a scheduled event.

    The ``Store`` as it stood while a receive cost an event of its own:
    a delivery is a ``put``, and a getter — blocked, already satisfiable
    or already expired — is triggered with ``succeed`` and resumes its
    process from a second, same-instant scheduler entry."""

    def deliver(self, event):
        self.put(event._value)

    def get(self):
        event = Event(self.sim)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def get_until(self, deadline):
        event = _DeadlineGet(self.sim)
        if deadline <= self.sim._now:
            event.succeed(TIMED_OUT)
        elif self._items:
            event.succeed(self._items.popleft())
        else:
            event.deadline = deadline
            self._getters.append(event)
            if deadline < self._timer_at:
                self._arm(deadline)
        return event


def run_topology(store_type, seed, n_stores, producers, consumers):
    """Producers send numbered messages into stores, consumers receive
    from one store each and may forward downstream.  Returns every
    consumer's ``[(instant, item | TIMED_OUT)]`` log, and whether some
    store saw a same-instant race that the tie order alone decides:
    two arrivals, an arrival on a deadline, or two consumers asking."""
    sim = Simulator()
    sim.perturb_ties(seed)
    stores = [store_type(sim) for _ in range(n_stores)]
    logs = [[] for _ in consumers]
    arrivals = [[] for _ in stores]
    deadlines = [set() for _ in stores]
    requests = [{} for _ in stores]

    def send(dst, latency, item):
        if latency is None:  # a put from inside the sending generator
            arrivals[dst].append(sim.now)
            stores[dst].put(item)
        else:
            arrivals[dst].append(sim.now + latency)
            sim.timeout(latency, item).callbacks.append(stores[dst].deliver)

    def producer(index, dst, sends):
        for seq, (gap, latency) in enumerate(sends):
            yield sim.timeout(gap)
            send(dst, latency, (index, seq))

    def consumer(index, src, steps):
        store = stores[src]
        for idle, patience, forward in steps:
            if idle:  # none: the next receive follows in the same segment
                yield sim.timeout(idle)
            requests[src].setdefault(sim.now, set()).add(index)
            if patience is None:
                item = yield store.get()
            else:
                deadlines[src].add(sim.now + patience)
                item = yield store.get_until(sim.now + patience)
            logs[index].append((sim.now, item))
            if forward is not None and item is not TIMED_OUT:
                hops, latency = forward
                if src + hops < n_stores:
                    send(src + hops, latency, item)

    started = [sim.process(producer(index, dst % n_stores, sends))
               for index, (dst, sends) in enumerate(producers)]
    started += [sim.process(consumer(index, src % n_stores, steps))
                for index, (src, steps) in enumerate(consumers)]
    sim.run()
    assert all(process.ok for process in started if process.triggered)
    raced = any(
        len(set(arrivals[s])) < len(arrivals[s])
        or deadlines[s] & set(arrivals[s])
        or any(len(who) > 1 for who in requests[s].values())
        for s in range(n_stores))
    return logs, raced


# Durations on a 1/8 µs grid: exact floats, plenty of same-instant work.
_GRID = st.integers(0, 40).map(lambda n: n / 8)
_LATENCY = st.integers(1, 40).map(lambda n: n / 8)
_SENDS = st.lists(
    st.tuples(_GRID, st.one_of(st.none(), _LATENCY)), min_size=1, max_size=8)
_STEPS = st.lists(
    st.tuples(_GRID, st.one_of(st.none(), _GRID),
              st.one_of(st.none(), st.tuples(st.integers(1, 2), _LATENCY))),
    min_size=1, max_size=10)


@given(n_stores=st.integers(1, 3),
       producers=st.lists(st.tuples(st.integers(0, 2), _SENDS),
                          min_size=1, max_size=3),
       consumers=st.lists(st.tuples(st.integers(0, 2), _STEPS),
                          min_size=1, max_size=4),
       seed=st.integers(0, 7))
@settings(max_examples=300, deadline=None)
def test_inline_delivery_logs_like_the_two_event_store(
        n_stores, producers, consumers, seed):
    """A receiver resumed inside the hop's entry — and one that never
    left, its item already queued — sees what it saw when each wake was
    an event of its own, under FIFO ties and under shuffled ones."""
    for ties in (None, seed):
        want, raced = run_topology(
            TwoEventStore, ties, n_stores, producers, consumers)
        # Which message a consumer gets when two land on its store in
        # one instant was never the kernel's to promise.
        assume(not raced)
        got, raced = run_topology(Store, ties, n_stores, producers, consumers)
        assume(not raced)
        assert got == want
