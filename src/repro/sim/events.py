"""Awaitable events for the discrete-event simulator.

An :class:`Event` is a one-shot occurrence.  Simulation processes wait on
events by ``yield``-ing them; when the event triggers, the process is
resumed with the event's value (or the event's exception is thrown into
it).  This mirrors the SimPy programming model, which keeps protocol code
(retransmission timers, RPC waits, quorum collection) readable.

An event is for what something waits on (a process, ``run(until=...)``,
an API completion, :class:`AnyOf`/:class:`AllOf`); a stage nothing
waits on is a scheduled call (``Simulator.call_at``), on the datapath
as everywhere else.  All event classes carry ``__slots__``, and every
trigger path (``succeed``, ``fail``, the :class:`Timeout` constructor)
files through ``Simulator._push``; nothing outside this module writes
an event's outcome.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.sim.clock import Simulator


class Event:
    """A one-shot occurrence in virtual time.

    Events start *pending*; :meth:`succeed` or :meth:`fail` triggers them
    exactly once.  Callbacks registered before the trigger run when the
    event is processed by the event loop.
    """

    PENDING = "pending"
    TRIGGERED = "triggered"
    PROCESSED = "processed"

    __slots__ = ("sim", "callbacks", "_state", "_value", "_exception")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: list[Callable[["Event"], None]] = []
        self._state = Event.PENDING
        self._value: Any = None
        self._exception: BaseException | None = None

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has an outcome (value or exception)."""
        return self._state != Event.PENDING

    @property
    def processed(self) -> bool:
        """True once the event loop has run this event's callbacks."""
        return self._state == Event.PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._state != Event.PENDING and self._exception is None

    @property
    def value(self) -> Any:
        """The success value; raises if the event failed or is pending."""
        if self._state == Event.PENDING:
            raise RuntimeError("event value read before trigger")
        if self._exception is not None:
            raise self._exception
        return self._value

    # ------------------------------------------------------------------
    # Triggering
    # ------------------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with *value*.

        Triggers are one-shot, and the kernel enforces it at run time: a
        second ``succeed``/``fail`` raises "already triggered".  Code with
        racing trigger paths (completion vs. expiry) must guard the late
        path with ``if not event.triggered:`` or make the paths mutually
        exclusive — a second trigger raises inside whichever process
        happened to cause it, far from the actual bug."""
        if self._state != Event.PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        self._state = Event.TRIGGERED
        self._value = value
        sim = self.sim
        sim._push(sim._now, self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception (one-shot; see
        :meth:`succeed` for the run-time contract)."""
        if self._state != Event.PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._state = Event.TRIGGERED
        self._exception = exception
        sim = self.sim
        sim._push(sim._now, self)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} state={self._state}>"


class Timeout(Event):
    """An event that triggers a fixed virtual-time delay from now.

    A timeout is born already TRIGGERED and schedules itself in the
    constructor, skipping ``Event.__init__`` + ``succeed()`` for the
    dominant plain-delay case.  It draws its tiebreak from the
    simulator's single counter (via ``_push``), so FIFO ordering
    against every other scheduling path is preserved exactly.
    """

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float,
                 value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        self.sim = sim
        self.callbacks = []
        self._state = Event.TRIGGERED
        self._value = value
        self._exception = None
        sim._push(sim._now + delay, self)


class _Condition(Event):
    """Base for AnyOf / AllOf composite events."""

    __slots__ = ("events",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self.events = list(events)
        # A Timeout is "triggered" from construction but only *occurs*
        # when processed; conditions therefore key off `processed`.
        for event in self.events:
            if event.processed:
                self._on_child(event)
            else:
                event.callbacks.append(self._on_child)

    def _on_child(self, event: Event) -> None:
        raise NotImplementedError

    def _results(self) -> dict[Event, Any]:
        return {e: e._value for e in self.events if e.processed and e.ok}


class AnyOf(_Condition):
    """Triggers when the first of the given events occurs."""

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event._exception)  # type: ignore[arg-type]
        else:
            self.succeed(self._results())


class AllOf(_Condition):
    """Triggers once every given event has occurred."""

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event._exception)  # type: ignore[arg-type]
            return
        if all(e.processed for e in self.events):
            self.succeed(self._results())
