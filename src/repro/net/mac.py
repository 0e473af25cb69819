"""The 100 Gb MAC kernel (link layer) of the TNIC hardware (§4.2).

"The 100Gb MAC kernel implements the link layer connecting TNIC to the
network fabric over a 100G Ethernet Subsystem. The kernel also exposes
two interfaces for transmitting (Tx) and receiving (Rx) network
packets."

The model serialises outgoing packets at wire bandwidth onto the
attached link and hands incoming packets to its ``ingress`` handler:
the RoCE protocol kernel's request decoder, or an Rx queue without one.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable

from repro.net.packet import Packet
from repro.sim.latency import WIRE_BANDWIDTH_BYTES_PER_US

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.fabric import Link
    from repro.sim.clock import Simulator


class EthernetMac:
    """Tx/Rx interface between a NIC and the fabric."""

    def __init__(
        self,
        sim: "Simulator",
        address: str,
        bandwidth_bytes_per_us: float = WIRE_BANDWIDTH_BYTES_PER_US,
    ) -> None:
        self.sim = sim
        self.address = address
        self.bandwidth = bandwidth_bytes_per_us
        #: Packets received with no ingress handler installed.
        self.rx_queue: deque[Packet] = deque()
        #: Where :meth:`deliver` hands every packet; a RoCE kernel sets it.
        self.ingress: Callable[[Packet], None] = self.rx_queue.append
        self._link: "Link | None" = None
        self._tx_busy_until = 0.0
        self.tx_packets = 0
        self.rx_packets = 0
        self.tx_bytes = 0
        self.rx_bytes = 0

    def attach(self, link: "Link") -> None:
        """Connect this MAC to a fabric link."""
        self._link = link

    def transmit(self, packet: Packet) -> None:
        """Serialise *packet* onto the wire after the Tx port frees up."""
        if self._link is None:
            raise RuntimeError(f"MAC {self.address} is not attached to a link")
        size = packet.wire_size()
        now = self.sim._now
        start = now if now > self._tx_busy_until else self._tx_busy_until
        self._tx_busy_until = busy_until = start + size / self.bandwidth
        self.tx_packets += 1
        self.tx_bytes += size
        # Filed at ``now`` plus the serialisation delay, the float a
        # relative delay lands on (``busy_until`` itself can differ in
        # the last bit).
        self.sim.call_at(now + (busy_until - now), self._serialised, packet)

    def _serialised(self, packet: Packet) -> None:
        """The packet is on the wire: the link draws its fate."""
        self._link.carry(self, packet)

    def deliver(self, packet: Packet) -> None:
        """Hop step: *packet* reached this MAC."""
        self.rx_packets += 1
        self.rx_bytes += packet.wire_size()
        self.ingress(packet)
