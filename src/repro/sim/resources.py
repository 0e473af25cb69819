"""Shared resources for simulation processes.

* :class:`Resource` — a counted semaphore with FIFO queueing, for
  holders that yield between acquire and release (the datapath has
  none: a post never yields, so it takes no lock).
* :class:`SerialServer` — one FIFO server whose service times are known
  at submission, so completions are computed, not simulated.  Used for
  the HMAC pipeline and the stack models' bottleneck.
* :class:`Store` — an unbounded FIFO of items with blocking ``get``,
  the deadline receive ``get_until`` and ``deliver``, the callback of
  the hop that carries a message: a receive is not an event, the hop
  resumes a blocked receiver inside its own scheduler entry, and a
  receive whose outcome is already known returns a processed event.
  Used for NIC RX/TX queues, host completion queues and the systems'
  client inboxes (replicas are ``systems.common.Station`` s).
* :class:`Pipe` — a bandwidth-limited byte channel with fixed set-up
  and propagation delays.  Used for the PCIe DMA engine.
"""

from __future__ import annotations

from collections import deque
from math import inf
from typing import TYPE_CHECKING, Any

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.clock import Simulator

_PROCESSED = Event.PROCESSED


class Resource:
    """A counted resource (semaphore) with FIFO fairness."""

    __slots__ = ("sim", "capacity", "_in_use", "_waiters")

    def __init__(self, sim: "Simulator", capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._waiters: deque[Event] = deque()

    @property
    def in_use(self) -> int:
        """Number of currently held units."""
        return self._in_use

    def acquire(self) -> Event:
        """Return an event that triggers once a unit is held.

        Lifecycle contract (LIV001): every acquire must be paired with a
        :meth:`release` on *every* path.  Exceptions are delivered into
        processes at yield points, so a holder that yields again before
        releasing must release in a ``try/finally``."""
        # Direct construction: skip the sim.event() frame.
        event = Event(self.sim)
        if self._in_use < self.capacity and not self._waiters:
            self._in_use += 1
            event.succeed(self)
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Release one held unit, waking the next waiter if any."""
        if self._in_use <= 0:
            raise RuntimeError("release() without matching acquire()")
        if self._waiters:
            waiter = self._waiters.popleft()
            waiter.succeed(self)
        else:
            self._in_use -= 1


class SerialServer:
    """One FIFO server with service times known at submission.

    The analytic form of ``Resource(capacity=1)`` plus a worker process
    per job: a job submitted at ``now`` starts at ``max(now,
    busy_until)`` and the server is busy for ``service_us`` from there,
    so its completion instant is known on submission and costs a single
    scheduled event.  Jobs complete in submission order.
    """

    __slots__ = ("sim", "_busy_until")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._busy_until = 0.0

    def serve(self, service_us: float, value: Any = None,
              tail_us: float = 0.0) -> Event:
        """Queue a job; the event triggers with *value* once it has been
        served, plus *tail_us* of latency that does not hold the server.

        The event is filed at the absolute instant ``busy_until +
        tail_us``.  A relative ``timeout(busy_until - now)`` would land
        on ``now + (busy_until - now)``, which can differ from
        ``busy_until`` in the last bit and drift every later timestamp.
        """
        if service_us < 0 or tail_us < 0:
            raise ValueError(
                f"negative service time: {service_us} (+{tail_us})")
        sim = self.sim
        now = sim._now
        busy_until = self._busy_until
        busy_until = (now if now > busy_until else busy_until) + service_us
        self._busy_until = busy_until
        return sim.trigger_at(busy_until + tail_us, value)


class _TimedOut:
    """Type of :data:`TIMED_OUT`, the one timeout sentinel."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "TIMED_OUT"


#: What a :meth:`Store.get_until` event resolves with when its deadline
#: passes first.  Compare by identity: ``if item is TIMED_OUT``.
TIMED_OUT = _TimedOut()


class _DeadlineGet(Event):
    """A pending :meth:`Store.get_until`: a getter that may expire."""

    __slots__ = ("deadline",)


class Store:
    """Unbounded FIFO store with blocking retrieval."""

    __slots__ = ("sim", "_items", "_getters", "_timer_at")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        #: Instant of the expiry timer in flight for :meth:`get_until`
        #: getters, ``inf`` when none is.
        self._timer_at = inf

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit *item*; wakes the oldest blocked getter if present —
        by a scheduled event, because ``put`` may be called from inside
        a running generator and generators must not nest."""
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item)
        else:
            self._items.append(item)

    def deliver(self, hop: Event) -> None:
        """Callback of the event that carries a message (a ``Timeout``
        holding it as its value): deposit the message, or hand it to the
        oldest blocked getter and run that getter's callbacks here,
        inside the hop's own scheduler entry.  Only the event loop calls
        this, so no generator is on the stack."""
        if not self._getters:
            self._items.append(hop._value)
            return
        getter = self._getters.popleft()
        getter._state = _PROCESSED
        getter._value = hop._value
        # The hop adopts the callbacks it runs: the profiler books this
        # entry to the receiver it resumed, not to ``Store.deliver``.
        hop.callbacks = callbacks = getter.callbacks
        getter.callbacks = []
        for callback in callbacks:
            callback(getter)

    def get(self) -> Event:
        """Return an event that triggers with the next item; it is
        already processed when an item is queued."""
        event = Event(self.sim)
        if self._items:
            event._state = _PROCESSED
            event._value = self._items.popleft()
        else:
            self._getters.append(event)
        return event

    def get_until(self, deadline: float) -> Event:
        """Receive with a deadline: the event triggers with the next
        item, or with :data:`TIMED_OUT` once the clock reaches the
        absolute instant *deadline*; it is already processed when the
        deadline has passed or an item is queued.

        A getter that is served schedules nothing for its deadline.
        The store keeps at most one expiry timer in flight, filed at
        the absolute deadline through ``Simulator.trigger_at`` (a relative
        ``timeout(deadline - now)`` lands on ``now + (deadline - now)``,
        which can differ from ``deadline`` in the last bit).  A served
        getter leaves the timer behind; the next getter reuses it when
        it fires no later than the new deadline, and a timer that fires
        with nobody due re-arms for the earliest deadline still waiting
        or lapses.  A consumer whose deadlines never move backwards
        therefore has one scheduled entry however many items it gets.
        """
        event = _DeadlineGet(self.sim)
        if deadline <= self.sim._now:
            event._state = _PROCESSED
            event._value = TIMED_OUT
        elif self._items:
            event._state = _PROCESSED
            event._value = self._items.popleft()
        else:
            event.deadline = deadline
            self._getters.append(event)
            if deadline < self._timer_at:
                self._arm(deadline)
        return event

    def _arm(self, when: float) -> None:
        """File the expiry timer at the absolute instant *when*."""
        self._timer_at = when
        self.sim.trigger_at(when, when, self._expire)

    def _expire(self, timer: Event) -> None:
        """The expiry timer fired: time out every getter that is due,
        then re-arm for the earliest deadline still waiting."""
        if timer._value != self._timer_at:
            return  # superseded by a timer armed for an earlier deadline
        self._timer_at = inf
        getters = self._getters
        if not getters:
            return
        now = self.sim._now
        earliest = inf
        for getter in list(getters):
            if type(getter) is _DeadlineGet:
                if getter.deadline <= now:
                    getters.remove(getter)
                    getter.succeed(TIMED_OUT)
                elif getter.deadline < earliest:
                    earliest = getter.deadline
        if earliest != inf:
            self._arm(earliest)

    def cancel_get(self, event: Event) -> None:
        """Withdraw a pending :meth:`get` so it can no longer consume an
        item.  Call this for the losing ``get`` of a race against
        another event — an abandoned getter would otherwise swallow the
        next put.  (A wait bounded by time is :meth:`get_until`, which
        withdraws its own getter.)"""
        try:
            self._getters.remove(event)
        except ValueError:
            pass  # already fulfilled or never pending


class Pipe:
    """A serialised byte channel with bandwidth and propagation delay.

    Transfers are serialised: after a fixed ``setup`` a transfer
    occupies the channel for ``size / bandwidth`` (the *serialisation*
    time) and arrives ``propagation`` later.  This models the PCIe DMA
    engine, whose occupancy is what creates queueing under load.  One
    set-up constant per pipe keeps entry FIFO, so a delivery instant is
    known at submission and costs one scheduled event.
    """

    __slots__ = ("sim", "bandwidth", "propagation", "setup", "_busy_until",
                 "bytes_transferred")

    def __init__(
        self,
        sim: "Simulator",
        bandwidth_bytes_per_us: float,
        propagation_us: float = 0.0,
        setup_us: float = 0.0,
    ) -> None:
        if bandwidth_bytes_per_us <= 0:
            raise ValueError("bandwidth must be positive")
        if propagation_us < 0 or setup_us < 0:
            raise ValueError("propagation and set-up delays must be >= 0")
        self.sim = sim
        self.bandwidth = bandwidth_bytes_per_us
        self.propagation = propagation_us
        self.setup = setup_us
        self._busy_until = 0.0
        self.bytes_transferred = 0

    def transfer(self, size_bytes: int) -> Event:
        """Send *size_bytes*; the event triggers at delivery time:
        ``arrive + (busy_until + propagation - arrive)``, the float a
        timeout started on entry lands on.  The shorter ``busy_until +
        propagation`` can differ in the last bit."""
        if size_bytes < 0:
            raise ValueError("transfer size must be >= 0")
        sim = self.sim
        arrive = sim._now + self.setup
        start = arrive if arrive > self._busy_until else self._busy_until
        busy_until = start + size_bytes / self.bandwidth
        self._busy_until = busy_until
        self.bytes_transferred += size_bytes
        return sim.trigger_at(
            arrive + (busy_until + self.propagation - arrive), size_bytes)
