"""Generator-based simulation processes.

A :class:`Process` drives a Python generator: each value the generator
yields must be an :class:`~repro.sim.events.Event`; the process sleeps
until that event triggers and is then resumed with the event's value.
A process is itself an event that triggers when the generator returns,
so processes can wait on each other (fork/join).

A wait that is already over is not an event: when the generator yields
an event that is already processed, :meth:`Process._advance` feeds its
outcome straight back in, in a loop, and only an event still to happen
gets the process as a callback.  A process that never blocks therefore
runs to its next real wait inside one scheduler entry.

Hot path: ``_advance`` runs once per wake in every process-driven
workload (bound ``send``/``throw`` cached, the event state compared
directly) and is the one copy of the advance logic:
:meth:`Process._resume` calls it bare, or inside the sanitizer's
bracket when one is attached."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.sim.events import Event, Interrupt

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.clock import Simulator

_PROCESSED = Event.PROCESSED


class Process(Event):
    """A running simulation process; also an event for its completion."""

    __slots__ = ("_generator", "_target", "_send", "_throw")

    def __init__(self, sim: "Simulator", generator: Generator[Event, Any, Any]) -> None:
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise TypeError(
                f"Process requires a generator, got {type(generator).__name__}; "
                "did you forget a 'yield' in the process function?"
            )
        self._generator = generator
        # Bound methods cached once: _advance calls one of them per
        # segment, and the attribute chain costs more than the call.
        self._send = generator.send
        self._throw = generator.throw
        self._target: Event | None = None
        # Kick off on a zero-delay event so process start is itself an
        # event-loop step (keeps causality when processes spawn processes).
        bootstrap = sim.timeout(0.0)
        bootstrap.callbacks.append(self._resume)
        self._target = bootstrap
        sanitizer = sim.sanitizer
        if sanitizer is not None:
            sanitizer.process_created(self)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its wait point."""
        if self.triggered:
            raise RuntimeError("cannot interrupt a finished process")
        target = self._target
        if target is not None and not target.processed:
            # Detach from the event we were waiting for.
            if self._resume in target.callbacks:
                target.callbacks.remove(self._resume)
        interruption = self.sim.event()
        interruption.fail(Interrupt(cause))
        interruption.callbacks.append(self._resume)
        self._target = interruption

    # ------------------------------------------------------------------
    def _resume(self, event: Event) -> None:
        self._target = None
        sanitizer = self.sim.sanitizer
        if sanitizer is None:
            self._advance(event)
            return
        # Cold lane: bracket the segments so shared-state accesses in them
        # are attributed to this process and joined with the waker's clock.
        sanitizer.process_resumed(self, event)
        try:
            self._advance(event)
        finally:
            sanitizer.process_suspended(self)

    def _advance(self, event: Event) -> None:
        """Run the generator from *event*'s outcome until it yields an
        event still to happen, and wait on that one; an event already
        processed (an item was queued, a deadline had passed, a process
        had finished) is fed straight back in."""
        try:
            while True:
                if event._exception is not None:
                    event = self._throw(event._exception)
                else:
                    event = self._send(event._value)
                if not isinstance(event, Event):
                    self._generator.close()
                    raise TypeError(f"process yielded {type(event).__name__}, "
                                    "expected an Event")
                if event._state != _PROCESSED:
                    break
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            # Interrupt included: unhandled, it fails the process.
            self.fail(exc)
            return
        event.callbacks.append(self._resume)
        self._target = event
