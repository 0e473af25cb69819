"""The PCIe XDMA engine (Figure 2).

"the PCIe DMA that transfers data from/to the host memory. The kernel
processes the messages as they flow from the memory to the network and
vice versa to optimize throughput."

Two transfer modes mirror §8.1's finding that the synchronous transfer
path costs ~16 µs ("the transfer time (16us) accounts for 70% of the
execution time") while asynchronous user-space DMA hides most of it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.instrument import count, observe
from repro.sim.latency import (
    PCIE_BANDWIDTH_BYTES_PER_US,
    TNIC_ASYNC_FIXED_US,
    TNIC_PCIE_TRANSFER_US,
)
from repro.sim.resources import Pipe

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.clock import Simulator
    from repro.sim.events import Event


class DmaEngine:
    """Host-memory <-> NIC transfers over a shared PCIe channel."""

    def __init__(
        self,
        sim: "Simulator",
        synchronous: bool = False,
        bandwidth_bytes_per_us: float = PCIE_BANDWIDTH_BYTES_PER_US,
    ) -> None:
        self.sim = sim
        self.synchronous = synchronous
        self._pipe = Pipe(sim, bandwidth_bytes_per_us,
                          setup_us=self.setup_cost_us())
        self.transfers = 0

    def setup_cost_us(self) -> float:
        """Fixed per-transfer cost (doorbell, descriptor fetch, IRQ).

        The synchronous XRT-style path measured in §8.1 pays the full
        16 µs; the user-space asynchronous path amortises it down to the
        small doorbell cost reflected in the 6 µs async attest figure.
        """
        if self.synchronous:
            return TNIC_PCIE_TRANSFER_US
        return TNIC_ASYNC_FIXED_US

    def transfer(self, size_bytes: int) -> "Event":
        """Move *size_bytes* across PCIe; the event (set-up, occupancy
        and completion in one) triggers when the transfer is done."""
        if size_bytes < 0:
            raise ValueError("size must be >= 0")
        self.transfers += 1
        sim = self.sim
        if sim.telemetry is not None:
            count(sim, "dma.transfers")
            count(sim, "dma.bytes", size_bytes)
            observe(sim, "dma.size_bytes", size_bytes)
        return self._pipe.transfer(size_bytes)

    @property
    def bytes_moved(self) -> int:
        return self._pipe.bytes_transferred
