"""The network fabric: links, a switch and fault injection.

The threat model (§3.2) lets the adversary control the network: drop,
duplicate, reorder, replay and tamper with packets.  :class:`Link`
exposes those capabilities as a :class:`NetworkFault` policy so tests
and benchmarks can subject the RoCE reliability layer and the
attestation kernel to hostile conditions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.net.mac import EthernetMac
from repro.net.packet import Packet
from repro.sim.instrument import count, emit
from repro.sim.latency import WIRE_PROPAGATION_US
from repro.sim.rng import DeterministicRng

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.clock import Simulator


@dataclass
class NetworkFault:
    """Adversarial / lossy behaviour applied to a link.

    ``tamper`` may return a modified packet, ``None`` to leave the
    packet unchanged.  Replayed packets are redelivered copies of
    earlier traffic (stale but well-formed) — the attack class TNIC's
    counters must defeat.
    """

    drop_probability: float = 0.0
    duplicate_probability: float = 0.0
    reorder_probability: float = 0.0
    reorder_extra_delay_us: float = 25.0
    replay_probability: float = 0.0
    tamper: Callable[[Packet], Packet | None] | None = None

    def validate(self) -> None:
        for name in ("drop_probability", "duplicate_probability",
                     "reorder_probability", "replay_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} out of range: {value}")


@dataclass
class LinkStats:
    """Counters for what the link did to traffic."""

    delivered: int = 0
    dropped: int = 0
    duplicated: int = 0
    reordered: int = 0
    replayed: int = 0
    tampered: int = 0


class _Wire:
    """What :class:`Link` and :class:`Fabric` share — the fault policy
    applied to one packet bound for one receiver; they differ only in
    how they find the receiver."""

    def __init__(
        self,
        sim: "Simulator",
        propagation_us: float,
        fault: NetworkFault | None,
        rng: DeterministicRng,
    ) -> None:
        if propagation_us < 0:
            raise ValueError("propagation delay must be >= 0")
        self.sim = sim
        self.propagation_us = propagation_us
        self.fault = fault or NetworkFault()
        self.fault.validate()
        self.rng = rng
        self.stats = LinkStats()
        self._replay_buffer: list[tuple[EthernetMac, Packet]] = []

    def _carry_to(self, receiver: EthernetMac, packet: Packet) -> None:
        """Apply the fault policy to *packet* on its way to *receiver*:
        one draw per configured fault, in the order tamper, drop,
        reorder, duplicate, replay — a seed names one fault schedule."""
        fault = self.fault
        rng = self.rng
        outcome = packet
        # One gate for the whole hop: packet.describe() is only built
        # and the counters only bumped when telemetry is attached.
        traced = self.sim.telemetry is not None

        if fault.tamper is not None:
            modified = fault.tamper(packet)
            if modified is not None and modified is not packet:
                self.stats.tampered += 1
                if traced:
                    emit(self.sim, "fabric.tamper", packet.describe())
                    count(self.sim, "fabric.tampered")
                outcome = modified

        if fault.drop_probability and rng.chance(fault.drop_probability):
            self.stats.dropped += 1
            if traced:
                emit(self.sim, "fabric.drop", packet.describe())
                count(self.sim, "fabric.dropped")
            return

        delay = self.propagation_us
        if fault.reorder_probability and rng.chance(fault.reorder_probability):
            self.stats.reordered += 1
            if traced:
                emit(self.sim, "fabric.reorder", packet.describe(),
                     extra_delay_us=fault.reorder_extra_delay_us)
                count(self.sim, "fabric.reordered")
            delay += fault.reorder_extra_delay_us

        self._deliver_after(delay, receiver, outcome)

        if fault.duplicate_probability and rng.chance(fault.duplicate_probability):
            self.stats.duplicated += 1
            if traced:
                emit(self.sim, "fabric.duplicate", packet.describe())
                count(self.sim, "fabric.duplicated")
            self._deliver_after(delay + 1.0, receiver, outcome)

        if fault.replay_probability:
            self._replay_buffer.append((receiver, outcome))
            if len(self._replay_buffer) > 64:
                self._replay_buffer.pop(0)
            if rng.chance(fault.replay_probability):
                victim_receiver, stale = rng.choice(self._replay_buffer)
                self.stats.replayed += 1
                if traced:
                    emit(self.sim, "fabric.replay", stale.describe())
                    count(self.sim, "fabric.replayed")
                self._deliver_after(delay + 5.0, victim_receiver, stale)

    def _deliver_after(self, delay: float, receiver: EthernetMac, packet: Packet) -> None:
        self.stats.delivered += 1
        # In flight the packet is the argument of the receiving MAC's step.
        sim = self.sim
        sim.call_at(sim._now + delay, receiver.deliver, packet)


class Link(_Wire):
    """A bidirectional point-to-point wire between two MACs."""

    def __init__(
        self,
        sim: "Simulator",
        mac_a: EthernetMac,
        mac_b: EthernetMac,
        propagation_us: float = WIRE_PROPAGATION_US,
        fault: NetworkFault | None = None,
        rng: DeterministicRng | None = None,
    ) -> None:
        super().__init__(sim, propagation_us, fault,
                         rng or DeterministicRng(0, "link"))
        self._peer = {mac_a.address: mac_b, mac_b.address: mac_a}
        mac_a.attach(self)
        mac_b.attach(self)

    def carry(self, sender: EthernetMac, packet: Packet) -> None:
        """Move *packet* from *sender* toward the opposite end."""
        self._carry_to(self._peer[sender.address], packet)


class Fabric(_Wire):
    """A star topology: every registered MAC reaches every other.

    Used by the multi-node distributed-system experiments, where three
    servers sit behind one switch.  The fault-injection API is
    :class:`Link`'s: one policy and one fault stream for the switch.
    """

    def __init__(
        self,
        sim: "Simulator",
        propagation_us: float = WIRE_PROPAGATION_US,
        fault: NetworkFault | None = None,
        rng: DeterministicRng | None = None,
    ) -> None:
        super().__init__(sim, propagation_us, fault,
                         rng or DeterministicRng(0, "fabric"))
        self._macs: dict[str, EthernetMac] = {}

    def register(self, mac: EthernetMac) -> None:
        """Plug *mac* into the switch."""
        if mac.address in self._macs:
            raise ValueError(f"duplicate MAC address {mac.address!r}")
        self._macs[mac.address] = mac
        mac.attach(self)  # Fabric quacks like a Link for EthernetMac.

    def carry(self, sender: EthernetMac, packet: Packet) -> None:
        """Switch *packet* to the MAC named in its Ethernet header."""
        receiver = self._macs.get(packet.eth.dst_mac)
        if receiver is None:
            self.stats.dropped += 1
            if self.sim.telemetry is not None:
                emit(self.sim, "fabric.drop",
                     f"no port for {packet.eth.dst_mac}")
                count(self.sim, "fabric.dropped")
            return
        self._carry_to(receiver, packet)

    def addresses(self) -> list[str]:
        return sorted(self._macs)
