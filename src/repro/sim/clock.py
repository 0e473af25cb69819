"""The virtual clock and event loop.

:class:`Simulator` owns one binary min-heap of ``(time, tiebreak, fn,
arg)`` entries and advances virtual time by popping the earliest entry
and running it: a *call* (:meth:`Simulator.call_at`) runs ``fn(arg)``,
an *event* entry (``fn`` None) the callbacks of the event ``arg``.
All timing in this repository — HMAC pipeline delays, PCIe DMA
transfers, wire propagation, TEE call overheads — is filed as such
entries on one simulator, so measurements are exactly reproducible.
A timed stage is a call whose step is the code that continues after
it; an event entry is filed only for something a caller waits on, by
the event's own trigger paths (``succeed``, ``fail``, the
:class:`~repro.sim.events.Timeout` constructor).

Time unit: **microseconds** throughout the repository, matching the
paper's reporting unit (µs).

Why a plain heap: the paper's systems (§8.3) are closed-loop — a
client keeps 1-16 requests in flight — so the pending set stays at a
few dozen entries on every ``benchmarks/e2e`` workload
(``tests/test_protocol_path.py`` pins it), and at that depth one
``heappush`` + one ``heappop`` per entry is the cheapest schedule
there is (docs/performance.md "Layer 1").

Scheduling invariant: every entry — an event's, filed by
:meth:`Simulator._push`, or a call's — draws its tiebreak from the
*single* counter, and the loop pops entries in full ``(when,
tiebreak)`` order, so same-timestamp entries always process in FIFO
scheduling order.  ``tests/test_golden_trace.py`` pins event ordering
and virtual-time results; ``tests/test_scheduler_oracle.py`` checks
random programs against an independently written reference.

Observers: two optional hook slots hang off the simulator, the
``telemetry`` hub and the ``profiler``.  Each is ``None`` when
detached and is tested with one ``is not None`` check where it is
used, so a run with nothing attached pays one attribute load per gate.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from math import inf
from typing import Any, Callable, Generator, Iterable

from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process
from repro.sim.rng import DeterministicRng

_PROCESSED = Event.PROCESSED


class EmptySchedule(Exception):
    """Raised by :meth:`Simulator.step` when no events remain."""


def _perturbed_ties(seed: int):
    """Tiebreak generator for :meth:`Simulator.perturb_ties`.

    Yields ``(random_20bit << 44) | n``: the random high bits shuffle
    same-timestamp order, the monotonic low bits keep every key unique
    (and resolve the rare high-bit collision back to FIFO).  Keys stay
    well under 2**63, so tuple comparison against counter keys is cheap.
    """
    bits = DeterministicRng(seed, "tiebreak-perturbation").getrandbits
    n = 0
    while True:
        yield (bits(20) << 44) | n
        n += 1


class Simulator:
    """Discrete-event simulation kernel with a microsecond virtual clock."""

    __slots__ = (
        "_now", "_heap", "_tie_next", "_running",
        "telemetry", "profiler",
        "__dict__",  # escape hatch: tests/tools attach ad-hoc attributes
    )

    def __init__(self) -> None:
        self._now = 0.0
        #: Min-heap of every pending (when, tiebreak, fn, arg) entry.
        self._heap: list[tuple[float, int, Any, Any]] = []
        #: Bound ``__next__`` of the one tiebreak counter — one
        #: load+call on the schedule path, no global ``next`` dispatch.
        self._tie_next = count().__next__
        #: True while :meth:`_drain` is on the stack: the re-entrancy
        #: guard for :meth:`run`, :meth:`step` and :meth:`perturb_ties`.
        self._running = False
        #: Optional telemetry hub (see :mod:`repro.telemetry`); the
        #: hooks in :mod:`repro.sim.instrument` dispatch through it.
        self.telemetry = None
        #: Optional deterministic profiler (``Profiler.attach(sim)``,
        #: :mod:`repro.telemetry.profiler`).  The drain loop dispatches
        #: each processed entry through it; detached, the cost is one
        #: attribute load and one ``is`` check per entry.  The kernel
        #: never reads a clock itself — the profiler owns its host-time
        #: source — so this file stays DET001-clean.
        self.profiler = None

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in microseconds."""
        return self._now

    # ------------------------------------------------------------------
    # Event construction helpers
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh pending event bound to this simulator."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers *delay* µs from now."""
        return Timeout(self, delay, value)

    def call_at(self, when: float, fn: Callable[[Any], Any], arg: Any) -> None:
        """Run ``fn(arg)`` at the absolute instant *when* (not before
        now): one heap entry and no event, for a stage nothing waits on.
        An absolute instant is exact where a relative ``timeout(when -
        now)`` can land a bit off it."""
        if when < self._now:
            raise ValueError(f"call_at({when}) is before now ({self._now})")
        heappush(self._heap, (when, self._tie_next(), fn, arg))

    def process(self, generator: Generator[Event, Any, Any]) -> Process:
        """Start a new process running *generator* in virtual time."""
        return Process(self, generator)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event triggering on the first of *events*."""
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event triggering once all *events* triggered."""
        return AllOf(self, events)

    # ------------------------------------------------------------------
    # Schedule perturbation (used by `python -m repro sanitize`)
    # ------------------------------------------------------------------
    def perturb_ties(self, seed: int | None) -> None:
        """Perturb tie-breaking among same-timestamp events.

        FIFO order among same-timestamp events is a *policy*, not a
        semantic guarantee: correct protocol code must produce the same
        final state under any tie order.  This seam swaps the monotonic
        tiebreak counter for a seeded generator whose values are
        random in their high bits and monotonic in their low bits —
        same-timestamp events therefore process in a seed-determined
        shuffle (unique keys, reproducible run-to-run), while
        cross-timestamp order is untouched.  Entries already queued are
        re-keyed in their current order, so construction-time ties are
        perturbed as well.

        ``perturb_ties(None)`` restores exact FIFO.  The default path is
        untouched: no extra work, and golden traces stay byte-identical.
        """
        if self._running:
            raise RuntimeError("cannot perturb ties while the loop is running")
        ties = count() if seed is None else _perturbed_ties(seed)
        self._tie_next = ties.__next__
        entries = sorted(self._heap)  # current (when, tiebreak) order
        del self._heap[:]
        for when, _tie, fn, arg in entries:
            heappush(self._heap, (when, self._tie_next(), fn, arg))

    # ------------------------------------------------------------------
    # Scheduling internals (the trigger paths of Event/Timeout)
    # ------------------------------------------------------------------
    def _push(self, when: float, event: Event) -> None:
        """File *event*'s entry, its tiebreak from the one counter."""
        heappush(self._heap, (when, self._tie_next(), None, event))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Process the single earliest scheduled entry.

        Raises :class:`EmptySchedule` when nothing is scheduled.
        """
        if self._running:
            raise RuntimeError("step() called from inside the event loop")
        if not self._heap:
            raise EmptySchedule()
        self._drain(None, inf, True)

    def run(self, until: float | Event | None = None) -> Any:
        """Run the event loop.

        * ``until=None`` — run until no events remain.
        * ``until=<float>`` — run until virtual time reaches that instant.
        * ``until=<Event>`` — run until that event is processed and return
          its value (raising its exception if it failed).
        """
        sentinel: Event | None = None
        deadline = inf
        if isinstance(until, Event):
            sentinel = until
            if sentinel._state == _PROCESSED:
                return sentinel.value
        elif until is not None:
            deadline = float(until)
            if deadline < self._now:
                raise ValueError("run(until=...) is in the past")

        if self._running:
            raise RuntimeError("run() called from inside the event loop")
        self._drain(sentinel, deadline)

        if sentinel is not None:
            if sentinel._state != _PROCESSED:
                raise RuntimeError(
                    "simulation ran out of events before the awaited "
                    "event triggered (deadlock?)"
                )
            return sentinel.value
        if deadline != inf:
            self._now = deadline
        return None

    def _drain(self, sentinel: Event | None, deadline: float,
               once: bool = False) -> None:
        """The event loop: process entries in ``(when, tiebreak)`` order.

        Stops when nothing is scheduled, once *sentinel* has been
        processed, before the first entry later than *deadline* (``inf``
        for none), or after one entry if *once*.  An entry leaves the
        heap only to be processed, so however the loop exits — a raising
        step included — the heap holds exactly the unprocessed entries.
        """
        heap = self._heap
        self._running = True
        try:
            while heap and heap[0][0] <= deadline:
                when, _tie, fn, arg = heappop(heap)
                self._now = when
                profiler = self.profiler
                if fn is not None:  # a call
                    if profiler is None:
                        fn(arg)
                    else:  # profiled: bracketed by the profiler's clock
                        started = profiler.clock()
                        fn(arg)
                        profiler.account("Call", fn, when,
                                         profiler.clock() - started)
                else:  # an event: run its callbacks
                    arg._state = _PROCESSED
                    callbacks = arg.callbacks
                    if profiler is not None:
                        arg.callbacks = []
                        started = profiler.clock()
                        for callback in callbacks:
                            callback(arg)
                        profiler.account(type(arg).__name__,
                                         callbacks and callbacks[0], when,
                                         profiler.clock() - started)
                    elif callbacks:
                        arg.callbacks = []
                        for callback in callbacks:
                            callback(arg)
                    if arg is sentinel:
                        return
                if once:
                    return
        finally:
            self._running = False

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def delayed_call(self, delay: float, fn: Callable[[], Any]) -> None:
        """Invoke the zero-argument *fn* after *delay* µs of virtual time."""
        self.call_at(self._now + delay, _invoke, fn)


def _invoke(fn: Callable[[], Any]) -> None:
    """The step of a :meth:`Simulator.delayed_call`."""
    fn()
