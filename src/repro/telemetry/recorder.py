"""The trace ring and the flight recorder: post-mortem state capture.

Debugging a Byzantine scenario after the fact is miserable with only
aggregate counters: by the time the run ends, the interesting state —
*what the datapath looked like at the instant the attestation kernel
rejected a message* — is gone.  The flight recorder fixes that: every
:func:`repro.sim.instrument.flight_trigger` call (attestation rejects,
RoCE window rewinds, tripped invariants) snapshots

* the virtual timestamp and the trigger's reason/context,
* the tail of the trace ring (last N records, spans included),
* the full metrics state (counters/gauges/histogram summaries),
* any registered auxiliary state (per-device counter stores, QP state),

into a bounded in-memory list, dumpable as JSON.  Snapshots are pure
functions of the simulation, so a seeded Byzantine scenario produces a
byte-identical black box on every run — diffs between two dumps are
real behavioural differences, never noise.

The ring is a :class:`Tracer` the hub owns as ``hub.trace``:
instrumented components append timestamped, categorised records
(``roce.tx``, ``attest.reject``, ``span.*`` ...) through
:func:`repro.sim.instrument.emit`.  It is bounded so long simulations
cannot exhaust memory; ``evicted`` counts records pushed out of the
full ring by newer ones.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import field
from typing import TYPE_CHECKING, Any, Callable

from repro.sim.record import Record, record

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.clock import Simulator
    from repro.telemetry import Telemetry


@record
class TraceRecord(Record):
    """One traced event."""

    time_us: float
    category: str
    message: str
    fields: dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        extra = " ".join(f"{k}={v}" for k, v in self.fields.items())
        text = f"[{self.time_us:12.2f}us] {self.category:16s} {self.message}"
        return f"{text} {extra}".rstrip()


class Tracer:
    """Bounded trace ring: the newest *capacity* records."""

    def __init__(self, capacity: int = 10_000) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._records: deque[TraceRecord] = deque(maxlen=capacity)
        #: Records buffered then pushed out of the full ring by newer ones.
        self.evicted = 0
        self.emitted = 0

    def record(
        self, time_us: float, category: str, message: str, **fields: Any
    ) -> None:
        self.emitted += 1
        if len(self._records) == self.capacity:
            self.evicted += 1
        self._records.append(TraceRecord(time_us, category, message, fields))

    def records(self, category_prefix: str | None = None) -> list[TraceRecord]:
        if category_prefix is None:
            return list(self._records)
        return [
            r for r in self._records if r.category.startswith(category_prefix)
        ]

    def render(self, category_prefix: str | None = None) -> str:
        return "\n".join(r.render() for r in self.records(category_prefix))

    def __len__(self) -> int:
        return len(self._records)

    def clear(self) -> None:
        self._records.clear()


class FlightRecorder:
    """Bounded black-box recorder for one simulator."""

    def __init__(
        self,
        sim: "Simulator",
        hub: "Telemetry",
        trace_tail: int = 256,
        max_snapshots: int = 32,
    ) -> None:
        if trace_tail < 1 or max_snapshots < 1:
            raise ValueError("trace_tail and max_snapshots must be >= 1")
        self.sim = sim
        self.hub = hub
        self.trace_tail = trace_tail
        self.max_snapshots = max_snapshots
        self.snapshots: list[dict[str, Any]] = []
        #: Triggers seen after the snapshot list filled up.
        self.overflowed = 0
        self._state_providers: list[tuple[str, Callable[[], Any]]] = []

    def add_state_provider(self, name: str, provider: Callable[[], Any]) -> None:
        """Register extra state to capture (e.g. a device's counter store).

        *provider* is called at trigger time and must return something
        JSON-serialisable.
        """
        self._state_providers.append((name, provider))

    # ------------------------------------------------------------------
    def trigger(self, event: str, **context: Any) -> dict[str, Any] | None:
        """Capture a snapshot; returns it (or None once full)."""
        if len(self.snapshots) >= self.max_snapshots:
            self.overflowed += 1
            return None
        tail = [
            {
                "time_us": round(record.time_us, 6),
                "category": record.category,
                "message": record.message,
                "fields": {k: str(v) for k, v in sorted(record.fields.items())},
            }
            for record in self.hub.trace.records()[-self.trace_tail:]
        ]
        snapshot: dict[str, Any] = {
            "seq": len(self.snapshots),
            "time_us": round(self.sim.now, 6),
            "event": event,
            "context": {k: str(v) for k, v in sorted(context.items())},
            "trace_tail": tail,
            "metrics": self.hub.registry.snapshot(),
            "open_spans": sorted(
                span.name for span in self.hub.spans.open_spans.values()
            ),
            "state": {
                name: provider() for name, provider in self._state_providers
            },
        }
        self.snapshots.append(snapshot)
        return snapshot

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "snapshots": self.snapshots,
            "overflowed": self.overflowed,
        }

    def dumps(self) -> str:
        """The black box as stable, diffable JSON."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def dump(self, path) -> None:
        """Write the black box to *path* (post-run tooling, not sim code)."""
        from pathlib import Path

        Path(path).write_text(self.dumps() + "\n", encoding="utf-8")

    def __len__(self) -> int:
        return len(self.snapshots)
