"""Instrumentation hook points for the simulated datapath.

The trusted packages (``repro.core``, ``repro.roce``, ``repro.net``)
may only import ``repro.sim`` — the boundary manifest forbids them a
dependency on the observability implementation, exactly like the
paper's attestation kernel cannot depend on host software.  This module
is therefore the *tracepoint layer*: dependency-free functions that
duck-dispatch to an optional hub object attached to the simulator as
``sim.telemetry`` (the hub lives in the untrusted
:mod:`repro.telemetry` package and is installed with
``Telemetry.attach(sim)``).  It is the simulator's one instrumentation
observer: metrics, spans, the trace ring and the flight recorder all
hang off it; the only other slot is the kernel-level ``sim.profiler``.

Every hook checks for its hub itself, so calling one detached is safe
— but not free: it is a Python call plus its keyword dict (~120 ns for
``count(sim, "x", device=d)``, against ~10 ns for the gate below).
Per-message paths therefore gate at the call site — which also skips
building an expensive argument such as ``packet.describe()`` — as they
do for ``sim.profiler``::

    if sim.telemetry is not None:
        count(sim, "x", device=d)
        emit(sim, "roce.tx", packet.describe())

and test a held span by identity, ``if span is not NULL_SPAN:``, never
by truthiness (``NullSpan.__bool__`` is a Python-level call too).
``tests/test_instrument_gate.py`` holds every benchmarked workload
shape to zero hook calls when detached; set-up and fault branches may
call a hook ungated.  ``Simulator.__init__`` guarantees the
``telemetry`` attribute.  All timestamps come from the simulator's
virtual clock, never the wall clock, so instrumented runs stay
deterministic (DET001).
"""

from __future__ import annotations

from typing import Any


class NullSpan:
    """Inert span handle returned while telemetry is detached.

    Supports the full span surface (``child``/``end``/``annotate``) as
    no-ops, so a cold caller need not branch on whether a hub exists.
    A per-message caller tests ``span is not NULL_SPAN`` and calls none
    of them.  Falsy as well, for cold callers only.
    """

    __slots__ = ()

    def child(self, name: str, **labels: Any) -> "NullSpan":
        return self

    def end(self, **labels: Any) -> None:
        return None

    def annotate(self, **labels: Any) -> None:
        return None

    def __bool__(self) -> bool:
        return False


NULL_SPAN = NullSpan()


def count(sim, name: str, value: float = 1, **labels: Any) -> None:
    """Add *value* to counter *name* (no-op without a hub)."""
    telemetry = sim.telemetry
    if telemetry is not None:
        telemetry.count(name, value, **labels)


def gauge_set(sim, name: str, value: float, **labels: Any) -> None:
    """Set gauge *name* to *value* (no-op without a hub)."""
    telemetry = sim.telemetry
    if telemetry is not None:
        telemetry.gauge_set(name, value, **labels)


def observe(sim, name: str, value: float, **labels: Any) -> None:
    """Record *value* into histogram *name* (no-op without a hub)."""
    telemetry = sim.telemetry
    if telemetry is not None:
        telemetry.observe(name, value, **labels)


def emit(sim, category: str, message: str, **fields: Any) -> None:
    """Append a record to the hub's trace ring at the current virtual
    time (no-op without a hub)."""
    telemetry = sim.telemetry
    if telemetry is not None:
        telemetry.emit(category, message, **fields)


#: Key under which a stage's span rides in the metadata dict that travels
#: with a device request or packet (``Packet.meta``): the sender writes
#: ``meta[TRACE_PARENT] = span`` and the next stage opens
#: ``span_begin(..., parent=meta.get(TRACE_PARENT))``, so the receiving
#: replica's spans join the sender's trace tree.  A work request carries
#: its caller's span in its own ``WorkRequest.parent`` field.  The trusted
#: datapath stores and forwards the value without inspecting it.
TRACE_PARENT = "trace_parent"


def span_begin(sim, name: str, parent: Any = None, **labels: Any):
    """Open a span at the current virtual time.

    Returns a live :class:`repro.telemetry.spans.Span` when a hub is
    attached, else :data:`NULL_SPAN`.  Callers end it with
    ``span.end()``; nesting uses ``span.child(...)``.  A *parent* that
    is not a live span roots a fresh trace (the hub decides).
    """
    telemetry = sim.telemetry
    if telemetry is None:
        return NULL_SPAN
    return telemetry.span_begin(name, parent=parent, **labels)


def flight_trigger(sim, event: str, **context: Any) -> None:
    """Snapshot the flight recorder (no-op without a hub).

    Instrumented code calls this at *anomaly* points — an attestation
    rejection, a transport window rewind, a tripped invariant — so the
    last-N trace records and the metric state at the moment of failure
    are preserved for post-mortem analysis.  *event* names the anomaly;
    the keyword context rides along verbatim (``reason=...`` is a
    conventional label within it).
    """
    telemetry = sim.telemetry
    if telemetry is not None:
        telemetry.flight_trigger(event, **context)
