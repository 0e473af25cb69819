"""Generator-based simulation processes.

A :class:`Process` drives a Python generator: each value the generator
yields must be an :class:`~repro.sim.events.Event`; the process sleeps
until that event triggers and is then resumed with the event's value.
A process is itself an event that triggers when the generator returns,
so processes can wait on each other (fork/join).

A wait that is already over is not an event: when the generator yields
an event that is already processed, :meth:`Process._resume` feeds its
outcome straight back in, in a loop, and only an event still to happen
gets the process as a callback.  A process that never blocks therefore
runs to its next real wait inside one scheduler entry.

Hot path: ``_resume`` runs once per wake in every process-driven
workload and is the wake: one bound-method callback that stores no
attribute (bound ``send``/``throw`` cached, the event state compared
directly)."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.clock import Simulator

_PROCESSED = Event.PROCESSED
#: The outcome a process starts from: no exception and the value None,
#: so its first resume is ``send(None)``.
_START = Event(None)  # type: ignore[arg-type]


class Process(Event):
    """A running simulation process; also an event for its completion."""

    __slots__ = ("_generator", "_send", "_throw")

    def __init__(self, sim: "Simulator", generator: Generator[Event, Any, Any]) -> None:
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise TypeError(
                f"Process requires a generator, got {type(generator).__name__}; "
                "did you forget a 'yield' in the process function?"
            )
        self._generator = generator
        # Bound methods cached once: _resume calls one of them per
        # segment, and the attribute chain costs more than the call.
        self._send = generator.send
        self._throw = generator.throw
        # Start as a call filed at now, so process start is itself an
        # event-loop step (keeps causality when processes spawn processes).
        sim.call_at(sim._now, self._resume, _START)

    def _resume(self, event: Event) -> None:
        """Run the generator from *event*'s outcome until it yields an
        event still to happen, and wait on that one; an event already
        processed (a timeout that has fired, a process that had
        finished) is fed straight back in."""
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
            # Unhandled, any exception fails the process.
            self.fail(exc)
            return
        event.callbacks.append(self._resume)
