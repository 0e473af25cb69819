"""Deterministic kernel profiler: where do the cycles actually go?

The ROADMAP's hot-path campaign needs attribution, not vibes: *which*
event types and callsites burn the host CPU, and which ones own the
virtual time the simulation reports.  This profiler hangs off the
drain loop in :mod:`repro.sim.clock` (attached as ``sim.profiler``,
one attribute load + one ``is`` check per entry when detached — the
same contract as the telemetry hub) and
accounts every processed heap entry under a stable key:

``Kind:callsite`` — ``Call`` and the step of a scheduled call (a
station's protocol step, e.g. ``Call:_RaftNode.lead``), or an event's
class and the code its first callback runs (for a process resumption
the *process generator* itself), so a profile reads like a flame-graph
leaf list of the simulation.

Two ledgers per key, with very different determinism status:

* **sim** — entry counts and virtual-time advance (µs): a pure
  function of the seeded simulation, byte-identical across runs, safe
  to assert on and to diff across PRs.
* **host** — wall CPU nanoseconds from ``time.perf_counter_ns``:
  inherently noisy, *never* allowed into the metrics document (the
  byte-identity guarantee of :func:`repro.telemetry.exporters
  .metrics_document` would die).  Host numbers only leave through
  :meth:`Profiler.document`, which labels them as nondeterministic,
  destined for a separate profile artifact.

The wall-clock import below is the telemetry layer's only one:
host-CPU attribution, kept out of the metrics document.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.clock import Simulator

#: Default host-time source.  Referenced once so tests can swap in a
#: deterministic fake clock without touching the ``time`` module.
DEFAULT_CLOCK: Callable[[], int] = time.perf_counter_ns


def _callsite(step: Any) -> str:
    """A stable, human-readable attribution for *step*'s work: a
    call's step or an event's first callback.

    Process resumptions are attributed to the generator the process
    runs (the interesting frame), a ``partial`` to the function it
    binds, everything else to the step's qualified name (``Owner.method``
    for a bound method: each stage of a chain has its key); no step (an
    event without callbacks) falls back to ``<idle>``."""
    if not step:
        return "<idle>"
    step = getattr(step, "func", step)  # a partial: the function it binds
    owner = getattr(step, "__self__", None)
    if owner is not None:
        generator = getattr(owner, "_generator", None)
        if generator is not None:
            qualname = getattr(generator, "__qualname__", None)
            if qualname is None:  # plain iterators / wrapped generators
                code = getattr(generator, "gi_code", None)
                qualname = code.co_qualname if code is not None else repr(owner)
            return qualname
        return f"{type(owner).__name__}.{step.__name__}"
    return getattr(step, "__qualname__", repr(step))


class Profiler:
    """Per-kind/callsite accounting over one simulator."""

    def __init__(
        self,
        sim: "Simulator",
        clock: Callable[[], int] = DEFAULT_CLOCK,
    ) -> None:
        self.sim = sim
        self.clock = clock
        #: key -> processed-entry count (deterministic).
        self.events: dict[str, int] = {}
        #: key -> virtual microseconds the clock advanced landing on
        #: this key's entries (deterministic; sums to the final
        #: ``sim.now`` when the profiler saw the whole run).
        self.sim_us: dict[str, float] = {}
        #: key -> host CPU nanoseconds inside this key's steps
        #: (nondeterministic; never enters the metrics document).
        self.host_ns: dict[str, int] = {}
        #: Virtual-time cursor: the clock value already attributed.
        self._cursor = sim.now

    # ------------------------------------------------------------------
    # Attachment (mirrors Telemetry)
    # ------------------------------------------------------------------
    @classmethod
    def attach(cls, sim: "Simulator", **options: Any) -> "Profiler":
        """Install a profiler on *sim* and return it."""
        profiler = cls(sim, **options)
        sim.profiler = profiler
        return profiler

    def detach(self) -> None:
        """Remove this profiler from its simulator (hooks go back to
        the one-check no-op path)."""
        if self.sim.profiler is self:
            self.sim.profiler = None

    # ------------------------------------------------------------------
    # The kernel-facing hook
    # ------------------------------------------------------------------
    def account(self, kind: str, step: Any, when: float,
                elapsed_ns: int) -> None:
        """Attribute one processed entry (called by the drain loop):
        *kind* is ``"Call"`` or the event's class, *step* as above.

        *when* is the entry's virtual timestamp; the advance since the
        previously accounted entry is attributed to this entry, because
        it is the one that made the clock move there.
        """
        key = f"{kind}:{_callsite(step)}"
        self.events[key] = self.events.get(key, 0) + 1
        advance = when - self._cursor
        if advance > 0.0:
            self.sim_us[key] = self.sim_us.get(key, 0.0) + advance
            self._cursor = when
        self.host_ns[key] = self.host_ns.get(key, 0) + elapsed_ns

    # ------------------------------------------------------------------
    # Reports
    # ------------------------------------------------------------------
    def sim_report(self) -> dict[str, dict[str, float]]:
        """The deterministic half: counts + virtual-time attribution,
        key-sorted so two seeded runs serialise byte-identically."""
        return {
            key: {
                "events": self.events[key],
                "sim_us": round(self.sim_us.get(key, 0.0), 6),
            }
            for key in sorted(self.events)
        }

    def host_report(self) -> dict[str, int]:
        """The nondeterministic half: host CPU ns per key."""
        return {key: self.host_ns[key] for key in sorted(self.host_ns)}

    def document(self) -> dict[str, Any]:
        """The profile artifact: both halves, explicitly labelled.

        This document is written *next to* the metrics document, never
        into it — ``host_cpu_ns`` varies run to run by design.
        """
        return {
            "clock_us": round(self.sim.now, 6),
            "events_total": sum(self.events.values()),
            "sim": self.sim_report(),
            "host_cpu_ns": self.host_report(),
            "host_cpu_ns_total": sum(self.host_ns.values()),
        }


__all__ = ["DEFAULT_CLOCK", "Profiler"]
