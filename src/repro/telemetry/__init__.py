"""Deterministic observability for the simulated TNIC datapath.

The paper's evaluation (§8, Figures 5–13) is entirely
measurement-driven: per-stage Attest() breakdowns, send/recv latency
percentiles, system throughput.  This package is the reproduction's
equivalent instrument rack, keyed on the *virtual* clock so enabling it
never perturbs the measurement and two runs of one seeded scenario
produce byte-identical output:

* :mod:`~repro.telemetry.metrics`   — counters, gauges, fixed-bucket
  histograms with p50/p90/p99/max, per-device/per-QP labels;
* :mod:`~repro.telemetry.spans`     — span trees decomposing one send
  into post → DMA → HMAC → wire → rx-verify (the Fig. 6 stages);
* :mod:`~repro.telemetry.recorder`  — the bounded trace ring
  (``hub.trace``) and a flight recorder snapshotting its tail + metric
  state whenever the attestation kernel rejects a message or an
  invariant trips;
* :mod:`~repro.telemetry.exporters` — JSON / Prometheus-text / human
  renderings of the same state.

Layering: the trusted packages never import this one (BND001).  They
call the hook functions in :mod:`repro.sim.instrument`, which dispatch
to the :class:`Telemetry` hub installed on the simulator by
``Telemetry.attach(sim)`` — the simulator's one instrumentation
observer, beside the kernel-level profiler.  Per-message call sites
gate on ``sim.telemetry is not None`` first, so a detached run calls
no hook at all (``tests/test_instrument_gate.py``).

Usage::

    from repro.api import Cluster, auth_send
    from repro.telemetry import Telemetry

    cluster = Cluster(["alice", "bob"])
    hub = Telemetry.attach(cluster.sim)
    ...
    print(hub.render_json())          # metrics + percentiles
    print(hub.spans.tree())           # the span forest
    print(hub.trace.render())         # the trace ring
    print(hub.recorder.dumps())       # flight-recorder black box
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.telemetry.exporters import (
    metrics_document,
    render_json,
    render_prometheus,
    render_text,
)
from repro.telemetry.metrics import (
    BYTE_BUCKET_BOUNDS,
    DEFAULT_BUCKET_BOUNDS_US,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.recorder import FlightRecorder, Tracer, TraceRecord
from repro.telemetry.spans import Span, SpanTracker

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.clock import Simulator


class Telemetry:
    """The hub: one registry + span tracker + trace ring + flight
    recorder per sim.

    Implements the duck-typed protocol :mod:`repro.sim.instrument`
    dispatches to (``count`` / ``gauge_set`` / ``observe`` / ``emit``
    / ``span_begin`` / ``flight_trigger``).
    """

    def __init__(
        self,
        sim: "Simulator",
        trace_tail: int = 256,
        max_snapshots: int = 32,
    ) -> None:
        self.sim = sim
        self.registry = MetricsRegistry()
        self.trace = Tracer()
        self.spans = SpanTracker(sim, self.registry)
        self.recorder = FlightRecorder(
            sim, self, trace_tail=trace_tail, max_snapshots=max_snapshots
        )

    @classmethod
    def attach(cls, sim: "Simulator", **options) -> "Telemetry":
        """Install a hub on *sim* and return it."""
        hub = cls(sim, **options)
        sim.telemetry = hub
        return hub

    # ------------------------------------------------------------------
    # The instrument-hook protocol
    # ------------------------------------------------------------------
    def count(self, name: str, value: float = 1, **labels: Any) -> None:
        self.registry.counter(name, **labels).inc(value)

    def gauge_set(self, name: str, value: float, **labels: Any) -> None:
        self.registry.gauge(name, **labels).set(value)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        # Convention: metrics named `*bytes` are size distributions and
        # get byte-scaled buckets; everything else is microseconds.
        bounds = (
            BYTE_BUCKET_BOUNDS if name.endswith("bytes")
            else DEFAULT_BUCKET_BOUNDS_US
        )
        self.registry.histogram(name, bounds=bounds, **labels).observe(value)

    def emit(self, category: str, message: str, **fields: Any) -> None:
        self.trace.record(self.sim.now, category, message, **fields)

    def span_begin(self, name: str, parent: Any = None, **labels: Any) -> Span:
        """Open a span under *parent*, the one place a parent is judged.

        Anything that is not a live :class:`Span` — None, the detached
        :data:`~repro.sim.instrument.NULL_SPAN`, or whatever a faulty
        wire left in a packet's ``span`` — roots a fresh trace, so a
        corrupt carrier never fails the datapath.
        """
        if not isinstance(parent, Span):
            parent = None
        return self.spans.begin(name, parent=parent, **labels)

    def flight_trigger(self, event: str, **context: Any) -> None:
        self.recorder.trigger(event, **context)

    # ------------------------------------------------------------------
    # Convenience renderings
    # ------------------------------------------------------------------
    def document(self) -> dict[str, Any]:
        return metrics_document(self)

    def render_json(self) -> str:
        return render_json(self)

    def render_prometheus(self) -> str:
        return render_prometheus(self)

    def render_text(self) -> str:
        return render_text(self)


__all__ = [
    "BYTE_BUCKET_BOUNDS",
    "Counter",
    "DEFAULT_BUCKET_BOUNDS_US",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "SpanTracker",
    "Telemetry",
    "TraceRecord",
    "Tracer",
    "metrics_document",
    "render_json",
    "render_prometheus",
    "render_text",
]
