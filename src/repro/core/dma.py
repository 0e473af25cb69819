"""The PCIe XDMA engine (Figure 2).

"the PCIe DMA that transfers data from/to the host memory. The kernel
processes the messages as they flow from the memory to the network and
vice versa to optimize throughput."

The device uses the asynchronous user-space path: §8.1 measures the
synchronous transfer at ~16 µs ("the transfer time (16us) accounts for
70% of the execution time"), and asynchronous DMA hides all of it but
the small doorbell cost, ``TNIC_ASYNC_FIXED_US`` per transfer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.sim.instrument import count, observe
from repro.sim.latency import PCIE_BANDWIDTH_BYTES_PER_US, TNIC_ASYNC_FIXED_US
from repro.sim.resources import Pipe

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.clock import Simulator


class DmaEngine:
    """Host-memory <-> NIC transfers over a shared PCIe channel."""

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        #: Each transfer's fixed set-up (doorbell, descriptor fetch,
        #: IRQ) is the pipe's; the rest is PCIe occupancy.
        self._pipe = Pipe(sim, PCIE_BANDWIDTH_BYTES_PER_US,
                          setup_us=TNIC_ASYNC_FIXED_US)
        self.transfers = 0

    def transfer(self, size_bytes: int, step: Callable[[Any], Any],
                 arg: Any) -> None:
        """Move *size_bytes* across PCIe; ``step(arg)`` runs when the
        transfer (set-up, occupancy and completion in one) is done."""
        if size_bytes < 0:
            raise ValueError("size must be >= 0")
        self.transfers += 1
        sim = self.sim
        if sim.telemetry is not None:
            count(sim, "dma.transfers")
            count(sim, "dma.bytes", size_bytes)
            observe(sim, "dma.size_bytes", size_bytes)
        self._pipe.transfer(size_bytes, step, arg)

    @property
    def bytes_moved(self) -> int:
        return self._pipe.bytes_transferred
