"""Shared resources for simulation components.

* :class:`SerialServer` — one FIFO server whose service times are known
  at submission, so completions are computed, not simulated.  Used for
  the HMAC pipeline and the stack models' bottleneck.
* :class:`Pipe` — a bandwidth-limited byte channel with fixed set-up
  and propagation delays.  Used for the PCIe DMA engine.

Neither holds a lock or runs a process: a job's completion instant is
known when it is submitted, and the step that continues after it is
filed there as one scheduled call.  A node that
handles messages one at a time is a ``systems.common.Station``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.clock import Simulator


class SerialServer:
    """One FIFO server with service times known at submission.

    The analytic form of a capacity-1 lock plus a worker process per
    job: a job submitted at ``now`` starts at ``max(now,
    busy_until)`` and the server is busy for ``service_us`` from there,
    so its completion instant is known on submission and costs a single
    scheduled call.  Jobs complete in submission order.
    """

    __slots__ = ("sim", "_busy_until")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._busy_until = 0.0

    def serve(self, service_us: float, step: Callable[[Any], Any], arg: Any,
              tail_us: float = 0.0) -> None:
        """Queue a job; ``step(arg)`` runs once it has been served, plus
        *tail_us* of latency that does not hold the server.

        The step is filed at the absolute instant ``busy_until +
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
        sim.call_at(busy_until + tail_us, step, arg)


class Pipe:
    """A serialised byte channel with bandwidth and propagation delay.

    Transfers are serialised: after a fixed ``setup`` a transfer
    occupies the channel for ``size / bandwidth`` (the *serialisation*
    time) and arrives ``propagation`` later.  This models the PCIe DMA
    engine, whose occupancy is what creates queueing under load.  One
    set-up constant per pipe keeps entry FIFO, so a delivery instant is
    known at submission and costs one scheduled call.
    """

    __slots__ = ("sim", "bandwidth", "propagation", "setup", "_busy_until",
                 "_done_at", "bytes_transferred")

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
        #: Delivery instant of the last transfer filed.
        self._done_at = 0.0
        self.bytes_transferred = 0

    def transfer(self, size_bytes: int, step: Callable[[Any], Any],
                 arg: Any) -> None:
        """Send *size_bytes*; ``step(arg)`` runs at delivery time:
        ``arrive + (busy_until + propagation - arrive)``, the float a
        timeout started on entry lands on.  The shorter ``busy_until +
        propagation`` can differ in the last bit.

        A transfer that occupies the channel for no time (zero bytes
        queued behind a busy pipe) could round one ulp below the
        delivery of the transfer ahead of it; it is filed at that
        instant instead, so deliveries keep submission order."""
        if size_bytes < 0:
            raise ValueError("transfer size must be >= 0")
        sim = self.sim
        arrive = sim._now + self.setup
        start = arrive if arrive > self._busy_until else self._busy_until
        busy_until = start + size_bytes / self.bandwidth
        self._busy_until = busy_until
        self.bytes_transferred += size_bytes
        done_at = arrive + (busy_until + self.propagation - arrive)
        if done_at < self._done_at:
            done_at = self._done_at
        self._done_at = done_at
        sim.call_at(done_at, step, arg)
