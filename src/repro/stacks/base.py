"""Common machinery for network-stack models.

A stack model has two numbers per message size:

* :meth:`NetworkStack.send_latency_us` — one-way latency seen by a
  ping-pong client (Figure 9).
* :meth:`NetworkStack.occupancy_us` — how long the stack's bottleneck
  stage (CPU core, HMAC pipeline, DMA/wire) is held per message; with
  multiple outstanding operations this determines throughput
  (Figure 8).

:func:`measure_latency` and :func:`measure_throughput` run the actual
client/server simulation and report virtual-time results.
"""

from __future__ import annotations

from collections import deque

from repro.sim.clock import Simulator
from repro.sim.events import Event
from repro.sim.record import Record, record
from repro.sim.resources import SerialServer


class NetworkStack:
    """One network stack endpoint pair (client + server)."""

    name = "abstract"
    trusted = False
    verifies = False

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._bottleneck = SerialServer(sim)

    # ------------------------------------------------------------------
    # Models (per variant)
    # ------------------------------------------------------------------
    def send_latency_us(self, size_bytes: int) -> float:
        """One-way send latency for a message of *size_bytes*."""
        raise NotImplementedError

    def occupancy_us(self, size_bytes: int) -> float:
        """Bottleneck-stage holding time per message."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def send(self, size_bytes: int) -> "Event":
        """Issue one send; the event triggers at delivery time.

        The bottleneck stage is held for ``occupancy_us``; the rest of
        the one-way latency overlaps with the next message.
        """
        if size_bytes < 0:
            raise ValueError("size must be >= 0")
        occupancy = self.occupancy_us(size_bytes)
        residual = max(self.send_latency_us(size_bytes) - occupancy, 0.0)
        done = Event(self.sim)
        self._bottleneck.serve(occupancy, done.succeed, size_bytes,
                               tail_us=residual)
        return done


@record
class StackMeasurement(Record):
    """Result of one latency or throughput experiment."""

    stack: str
    size_bytes: int
    latency_us: float
    throughput_ops: float  # operations per second
    throughput_gbps: float

    def describe(self) -> str:
        return (
            f"{self.stack:12s} {self.size_bytes:>7d}B "
            f"lat={self.latency_us:8.1f}us "
            f"thr={self.throughput_ops:12.0f} op/s "
            f"({self.throughput_gbps:6.2f} Gb/s)"
        )


def measure_latency(
    stack_cls, size_bytes: int, operations: int = 200
) -> StackMeasurement:
    """Ping-pong latency: one operation at a time (Figure 9)."""
    sim = Simulator()
    stack = stack_cls(sim)
    start = sim.now
    for _ in range(operations):
        sim.run(stack.send(size_bytes))
    elapsed = sim.now - start
    latency = elapsed / operations
    return _measurement(stack, size_bytes, latency, operations, elapsed)


def measure_throughput(
    stack_cls, size_bytes: int, operations: int = 2000, outstanding: int = 32
) -> StackMeasurement:
    """Pipelined throughput: *outstanding* in-flight operations (Fig 8).

    Closed loop: the next send is issued when the oldest completes.
    """
    sim = Simulator()
    stack = stack_cls(sim)
    window: deque = deque()
    start = sim.now
    for _ in range(operations):
        if len(window) == outstanding:
            sim.run(window.popleft())
        window.append(stack.send(size_bytes))
    while window:
        sim.run(window.popleft())
    elapsed = sim.now - start
    latency = elapsed / operations  # effective per-op time
    return _measurement(stack, size_bytes, latency, operations, elapsed)


def _measurement(stack, size_bytes, latency_us, operations, elapsed_us):
    ops_per_second = operations / (elapsed_us / 1e6) if elapsed_us else 0.0
    gbps = ops_per_second * size_bytes * 8 / 1e9
    return StackMeasurement(
        stack=stack.name,
        size_bytes=size_bytes,
        latency_us=latency_us,
        throughput_ops=ops_per_second,
        throughput_gbps=gbps,
    )
