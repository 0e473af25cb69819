"""The virtual clock and event loop.

:class:`Simulator` owns a **calendar queue** of `(time, tiebreak,
event)` entries and advances virtual time by draining the earliest
time bucket and running each event's callbacks.  All timing in this
repository — HMAC pipeline delays, PCIe DMA transfers, wire
propagation, TEE call overheads — is expressed as
:class:`~repro.sim.events.Timeout` events on one simulator, so
measurements are exactly reproducible.

Time unit: **microseconds** throughout the repository, matching the
paper's reporting unit (µs).

Hot path: the calendar queue.  Every reproduced figure (§8) comes out
of the one loop in :meth:`Simulator._drain`, so the schedule/drain
cycle avoids per-event heap churn:

* Scheduling (:meth:`Simulator._push`) is an O(1) append onto a
  fixed-width time bucket (``bucket = int(when * inv_width)``, an
  exact, monotone map for non-negative times), plus one integer
  heappush when the bucket is new.  The bucket width defaults to
  :data:`DEFAULT_BUCKET_WIDTH_US` = 1.0 µs — sized from the observed
  link delays (``WIRE_PROPAGATION_US`` is 1.0 µs, MTU serialisation at
  100 Gb/s ~0.33 µs, DMA and HMAC occupancies a few µs), so one
  delivery wave of a protocol round lands in one or two buckets.
* Draining pops the smallest active bucket id (a heap of *ints*),
  sorts that one bucket (Timsort is near-linear on the mostly-ordered
  appends) and walks it by index.  Events scheduled *during* the walk
  land either in a future bucket (O(1) append) or, for the bucket
  being drained, in a small ``fresh`` heap that the walk interleaves
  by ``(time, tiebreak)``.
* Events farther out than :data:`CALENDAR_HORIZON_BUCKETS` buckets go
  to an **overflow heap**; when the calendar runs dry the horizon
  advances and due overflow entries migrate into buckets
  (:meth:`Simulator._migrate`), so a far-future retransmission timer
  costs two heap ops total instead of a bucket list of its own.

All of this is wall-clock-only: ``tests/test_golden_trace.py`` pins
event ordering and virtual-time results, ``tests/test_calendar_queue.py``
pins the bucket-boundary edge cases, and
``tests/test_scheduler_oracle.py`` checks random programs against a
single-``heapq`` reference scheduler.

Scheduling invariant: every entry is a ``(when, tiebreak, event)``
tuple built by :meth:`Simulator._push` from the *single* ``_tiebreak``
counter, and the loop processes entries in full ``(when, tiebreak)``
order, so same-timestamp events always process in FIFO scheduling
order no matter which primitive (or which bucket) scheduled them.
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

#: Calendar bucket width in µs.  Sized from the observed link delays:
#: one wire hop is ``WIRE_PROPAGATION_US`` (1.0 µs) plus ~0.33 µs MTU
#: serialisation, and the DMA/HMAC occupancies are single-digit µs, so
#: a 1.0 µs bucket holds one delivery wave without degenerating into a
#: per-event bucket.  Any positive width is correct (the bucket map is
#: monotone); powers of two keep the float multiply exact.
DEFAULT_BUCKET_WIDTH_US = 1.0

#: How many buckets the calendar spans ahead of its base before events
#: spill into the overflow heap.  4096 × 1.0 µs covers every in-flight
#: protocol round trip in the repository; only long retransmission /
#: client timeout timers overflow, and those cost two heap ops total.
CALENDAR_HORIZON_BUCKETS = 4096


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
        "_now", "_buckets", "_active", "_overflow", "_fresh",
        "_width", "_inv_width", "_limit", "_draining", "_tiebreak",
        "_tie_next", "_running",
        "tracer", "telemetry", "sanitizer", "profiler",
        # Escape hatch for tests/tools that attach ad-hoc attributes;
        # the slotted names above keep the kernel's own loads fast.
        "__dict__",
    )

    def __init__(self, bucket_width_us: float = DEFAULT_BUCKET_WIDTH_US) -> None:
        if bucket_width_us <= 0:
            raise ValueError(f"bucket width must be positive: {bucket_width_us}")
        self._now = 0.0
        #: bucket id -> its (when, tiebreak, event) entries, unsorted.
        self._buckets: dict[int, list[tuple[float, int, Event]]] = {}
        #: Min-heap of non-empty bucket ids (plain ints).
        self._active: list[int] = []
        #: Min-heap of entries beyond the calendar horizon.
        self._overflow: list[tuple[float, int, Event]] = []
        #: Min-heap of entries scheduled *into the bucket being
        #: drained* by its own callbacks; interleaved by (when, tie).
        self._fresh: list[tuple[float, int, Event]] = []
        self._width = bucket_width_us
        self._inv_width = 1.0 / bucket_width_us
        #: First bucket id past the calendar horizon (overflow beyond).
        self._limit = CALENDAR_HORIZON_BUCKETS
        #: Bucket id currently being drained, -1 between buckets.
        self._draining = -1
        self._tiebreak = count()
        #: Bound ``__next__`` of the tiebreak source — one load+call on
        #: the schedule path instead of a global ``next`` dispatch.
        self._tie_next = self._tiebreak.__next__
        #: True while :meth:`_drain` is on the stack: the re-entrancy
        #: guard for :meth:`run`, :meth:`step` and :meth:`perturb_ties`.
        self._running = False
        #: Optional structured tracer (see :mod:`repro.sim.trace`).
        self.tracer = None
        #: Optional telemetry hub (see :mod:`repro.telemetry`); the
        #: hooks in :mod:`repro.sim.instrument` dispatch through it.
        self.telemetry = None
        #: Optional happens-before sanitizer (see :mod:`repro.sanitizer`);
        #: the Process/Event hooks and ``instrument.note_read/note_write``
        #: dispatch through it, same zero-cost-when-detached contract.
        self.sanitizer = None
        #: Optional deterministic profiler (see
        #: :mod:`repro.telemetry.profiler`), attached with
        #: ``Profiler.attach(sim)``.  The drain loop dispatches each
        #: processed event through it; detached, the cost is one
        #: attribute load and one ``is`` check per event.  The kernel
        #: never reads a clock itself — the profiler owns its own
        #: host-time source — so this file stays DET001-clean.
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
        ``_tiebreak`` counter for a seeded generator whose values are
        random in their high bits and monotonic in their low bits —
        same-timestamp events therefore process in a seed-determined
        shuffle (unique keys, reproducible run-to-run), while
        cross-timestamp order is untouched.  Entries already queued
        (bucketed or overflowed) are taken out and re-filed in their
        current order, so they draw new keys too and construction-time
        ties are perturbed as well.

        ``perturb_ties(None)`` restores exact FIFO.  The default path is
        untouched: no extra work, and golden traces stay byte-identical.
        """
        if self._running:
            raise RuntimeError("cannot perturb ties while the loop is running")
        self._tiebreak = count() if seed is None else _perturbed_ties(seed)
        self._tie_next = self._tiebreak.__next__
        entries = self._overflow[:]
        for pending in self._buckets.values():
            entries.extend(pending)
        entries.sort()  # current (when, tiebreak) order
        self._buckets.clear()
        del self._active[:]
        del self._overflow[:]
        for when, _tie, event in entries:
            self._push(when, event)

    # ------------------------------------------------------------------
    # Scheduling internals (used by Event/Timeout)
    # ------------------------------------------------------------------
    def _push(self, when: float, event: Event) -> None:
        """The one scheduling primitive: enqueue *event* at *when*.

        Every entry gets its tuple shape and tiebreak here, so FIFO
        order among same-timestamp events is global.  The entry goes to
        the drained bucket's ``fresh`` heap (``_draining`` is -1 unless
        a callback is scheduling), to its bucket with an O(1) append,
        or to the overflow heap past the horizon.
        """
        entry = (when, self._tie_next(), event)
        bucket = int(when * self._inv_width)
        if bucket == self._draining:
            heappush(self._fresh, entry)
        elif bucket < self._limit:
            buckets = self._buckets
            pending = buckets.get(bucket)
            if pending is None:
                buckets[bucket] = [entry]
                heappush(self._active, bucket)
            else:
                pending.append(entry)
        else:
            heappush(self._overflow, entry)

    def _schedule_at(self, when: float, event: Event) -> None:
        if when < self._now:
            raise ValueError(f"cannot schedule into the past: {when} < {self._now}")
        self._push(when, event)

    # ------------------------------------------------------------------
    # Calendar maintenance
    # ------------------------------------------------------------------
    def _migrate(self) -> None:
        """Advance the horizon and pull due overflow entries into buckets.

        Called only when the calendar is empty, so the new base is the
        earliest overflow entry's bucket.  Entries pop in full
        ``(when, tiebreak)`` order, so per-bucket append order stays
        sorted and FIFO-correct.
        """
        overflow = self._overflow
        inv_width = self._inv_width
        limit = int(overflow[0][0] * inv_width) + CALENDAR_HORIZON_BUCKETS
        self._limit = limit
        buckets = self._buckets
        active = self._active
        while overflow:
            entry = overflow[0]
            bucket = int(entry[0] * inv_width)
            if bucket >= limit:
                break
            heappop(overflow)
            pending = buckets.get(bucket)
            if pending is None:
                buckets[bucket] = [entry]
                heappush(active, bucket)
            else:
                pending.append(entry)

    def _restore(self, bucket: int, entries: list) -> None:
        """Return unprocessed *entries* (plus fresh leftovers) to *bucket*.

        Early-exit path (deadline, sentinel, callback exception): the
        calendar must hold exactly the unprocessed events afterwards.
        List order is irrelevant — buckets sort on drain.
        """
        fresh = self._fresh
        if fresh:
            entries.extend(fresh)
            del fresh[:]
        if entries:
            pending = self._buckets.get(bucket)
            if pending is None:
                self._buckets[bucket] = entries
                heappush(self._active, bucket)
            else:
                pending.extend(entries)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Process the single earliest scheduled event.

        Raises :class:`EmptySchedule` when nothing is scheduled.
        """
        if self._running:
            raise RuntimeError("step() called from inside the event loop")
        if self._active:
            head = min(self._buckets[self._active[0]])
        elif self._overflow:
            head = self._overflow[0]
        else:
            raise EmptySchedule()
        self._drain(head[2], inf)

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

    def _drain(self, sentinel: Event | None, deadline: float) -> None:
        """The event loop: process entries in ``(when, tiebreak)`` order.

        Stops when nothing is scheduled, once *sentinel* has been
        processed, or before the first entry later than *deadline*
        (``inf`` for none).  However it exits — a raising callback
        included — the calendar holds exactly the unprocessed events:
        the ``finally`` re-files the unwalked snapshot tail and the
        fresh heap.
        """
        buckets = self._buckets
        active = self._active
        fresh = self._fresh
        bucket = index = 0
        snapshot: list[tuple[float, int, Event]] = []
        self._running = True
        try:
            while True:
                if not active:
                    if not self._overflow:
                        return
                    self._migrate()
                bucket = active[0]
                if bucket * self._width > deadline:
                    return  # whole bucket starts past the deadline
                heappop(active)
                snapshot = buckets.pop(bucket)
                if len(snapshot) > 1:
                    snapshot.sort()
                size = len(snapshot)
                index = 0
                self._draining = bucket
                while True:
                    # Next entry: the snapshot's, unless a callback has
                    # scheduled an earlier one into this bucket.
                    if index < size and not (fresh and fresh[0] < snapshot[index]):
                        when, _tie, event = snapshot[index]
                        if when > deadline:
                            return
                        index += 1
                    elif fresh:
                        if fresh[0][0] > deadline:
                            return
                        when, _tie, event = heappop(fresh)
                    else:
                        break
                    self._now = when
                    event._state = _PROCESSED
                    callbacks = event.callbacks
                    profiler = self.profiler
                    if profiler is not None:
                        # Profiled lane: bracket the callbacks with the
                        # profiler's host clock and attribute the event.
                        event.callbacks = []
                        started = profiler.clock()
                        for callback in callbacks:
                            callback(event)
                        profiler.account(event, callbacks, when,
                                         profiler.clock() - started)
                    elif callbacks:
                        event.callbacks = []
                        for callback in callbacks:
                            callback(event)
                    if event is sentinel:
                        return
                self._draining = -1
        finally:
            self._running = False
            if self._draining != -1:
                self._draining = -1
                self._restore(bucket, snapshot[index:])

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def delayed_call(self, delay: float, fn: Callable[[], Any]) -> Timeout:
        """Invoke *fn* after *delay* µs of virtual time."""
        timeout = Timeout(self, delay)
        timeout.callbacks.append(lambda _event: fn())  # lint: ignore[PERF001] adapter dropping the event arg; the zero-arg fn contract predates Timeout callbacks
        return timeout
