"""Span-based tracing over the virtual clock.

One ``auth_send`` is not one number: the paper's Figure 6 decomposes an
Attest() into transfer/compute/glue, and §8.2 decomposes a send into
the RoCE datapath plus two HMAC pipeline traversals.  Spans make the
same decomposition observable in the simulation: the device opens a
root ``tnic.tx`` span and the stages underneath it — ``tnic.post``
(host post), ``tnic.dma`` (PCIe), ``attest.hmac`` (pipeline),
``roce.tx`` (wire + ACK) and ``roce.rx_verify`` (receiver pipeline) —
each become a child with exact virtual-time bounds.

Every finished span feeds a histogram named after the span, so
``attest.hmac`` p50/p99 fall out of the metrics document, and emits a
``span.<name>`` trace record so the flight recorder's tail shows the
stage timeline leading up to an anomaly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count as _counter
from typing import TYPE_CHECKING, Any

from repro.sim.instrument import emit
from repro.telemetry.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.clock import Simulator


@dataclass(slots=True)
class Span:
    """One timed stage of the datapath; nests through ``child()``."""

    tracker: "SpanTracker"
    span_id: int
    parent_id: int | None
    name: str
    start_us: float
    labels: dict[str, Any] = field(default_factory=dict)
    end_us: float | None = None
    #: Logical-request identity: every span of one request — across
    #: every replica it touches — shares one trace id.  The span itself
    #: travels between nodes as the next stage's parent.
    trace_id: int = 0

    @property
    def open(self) -> bool:
        return self.end_us is None

    @property
    def duration_us(self) -> float:
        if self.end_us is None:
            raise RuntimeError(f"span {self.name!r} is still open")
        return self.end_us - self.start_us

    def child(self, name: str, **labels: Any) -> "Span":
        """Open a nested stage under this span."""
        return self.tracker.begin(name, parent=self, **labels)

    def annotate(self, **labels: Any) -> None:
        """Attach extra context discovered mid-span (sizes, PSNs ...)."""
        self.labels.update(labels)

    def end(self, **labels: Any) -> None:
        """Close the span at the current virtual time (idempotent)."""
        if self.end_us is not None:
            return
        if labels:
            self.labels.update(labels)
        self.tracker.finish(self)

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "trace": self.trace_id,
            "name": self.name,
            "start_us": round(self.start_us, 6),
            "end_us": round(self.end_us, 6) if self.end_us is not None else None,
            "duration_us": (
                round(self.duration_us, 6) if self.end_us is not None else None
            ),
            "labels": {k: str(v) for k, v in sorted(self.labels.items())},
        }


class SpanTracker:
    """Opens, closes and retains spans for one simulator.

    Finished spans land in a bounded list (oldest evicted first) for
    tree rendering; their durations feed an *unlabelled*
    ``registry.histogram(name)`` so percentile series stay
    low-cardinality, while the retained span objects keep full label
    context (device/qp/node) for the tree and the flight recorder.
    """

    def __init__(
        self,
        sim: "Simulator",
        registry: MetricsRegistry,
        capacity: int = 4096,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.registry = registry
        self.capacity = capacity
        self._ids = _counter(1)
        self._trace_ids = _counter(1)
        self.finished: list[Span] = []
        self.open_spans: dict[int, Span] = {}
        self.evicted = 0

    def begin(
        self,
        name: str,
        parent: Span | None = None,
        **labels: Any,
    ) -> Span:
        """Open a span; *parent* is a :class:`Span` — local, or carried
        in from another stage or replica — or None to root a new trace."""
        if parent is None:
            trace_id = next(self._trace_ids)
            parent_id = None
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        span = Span(
            tracker=self,
            span_id=next(self._ids),
            parent_id=parent_id,
            name=name,
            start_us=self.sim.now,
            labels=dict(labels),
            trace_id=trace_id,
        )
        self.open_spans[span.span_id] = span
        return span

    def finish(self, span: Span) -> None:
        span.end_us = self.sim.now
        self.open_spans.pop(span.span_id, None)
        if len(self.finished) >= self.capacity:
            del self.finished[0]
            self.evicted += 1
        self.finished.append(span)
        self.registry.histogram(span.name).observe(span.duration_us)
        emit(
            self.sim, f"span.{span.name}",
            f"{span.duration_us:.2f}us id={span.span_id}",
            parent=span.parent_id, trace=span.trace_id,
        )

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def spans(self, name: str | None = None) -> list[Span]:
        if name is None:
            return list(self.finished)
        return [s for s in self.finished if s.name == name]

    def tree(self) -> str:
        """Indented text rendering of the finished span forest.

        Children sort under their parents by (start time, id); roots by
        the same key — a deterministic function of the simulation.
        """
        by_parent: dict[int | None, list[Span]] = {}
        known = {span.span_id for span in self.finished}
        for span in self.finished:
            parent = span.parent_id if span.parent_id in known else None
            by_parent.setdefault(parent, []).append(span)
        for children in by_parent.values():
            children.sort(key=lambda s: (s.start_us, s.span_id))
        lines: list[str] = []

        def render(span: Span, depth: int) -> None:
            extra = " ".join(
                f"{k}={v}" for k, v in sorted(span.labels.items())
            )
            lines.append(
                f"{'  ' * depth}{span.name} "
                f"[{span.start_us:.2f} → {span.end_us:.2f}] "
                f"{span.duration_us:.2f}us"
                + (f" {extra}" if extra else "")
            )
            for child in by_parent.get(span.span_id, []):
                render(child, depth + 1)

        for root in by_parent.get(None, []):
            render(root, 0)
        return "\n".join(lines)


__all__ = ["Span", "SpanTracker"]
