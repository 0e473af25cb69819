"""The State tables of the RoCE protocol kernel (§4.2).

"the kernel implements State tables to store protocol queues (e.g.,
receive/send/completion queues) as well as important metadata, i.e.,
packet sequence numbers (PSNs), message sequence numbers (MSNs), and a
Retransmission Timer."

The tables are one :class:`QueuePairState` record per QP
(``RoceKernel.tables``, keyed by QP number): everything the kernel
keeps about a connection lives in its record.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.roce.queue_pair import QueuePair
from repro.sim.record import Record, record


@record
class CompletionEntry(Record):
    """The value of a send's completion event: the peer ACKed it."""

    qp_number: int
    msn: int
    opcode: str
    ok: bool


@dataclass(slots=True)
class _InflightPacket:
    psn: int
    packet: Any
    #: Instant of the last (re)transmission.
    sent_at: float
    #: The responder's verification occupancy for the packet's message:
    #: its ACK cannot leave before that has passed.
    ack_delay_us: float = 0.0
    retries: int = 0


@dataclass
class QueuePairState:
    """Per-QP protocol state: the QP's one record in the State tables."""

    qp: QueuePair
    #: The peer's QP number, bound by ``connect_qp`` (ibv_sync); -1 before.
    remote_qp_number: int = -1
    #: PSN of the next packet this side will transmit.
    next_send_psn: int = 0
    #: PSN the receive side expects next (in-order delivery).
    expected_recv_psn: int = 0
    #: MSN of the next message delivered (its segments take a PSN each).
    next_recv_msn: int = 0
    #: Work requests waiting for send-window space.
    tx_backlog: deque = field(default_factory=deque)
    #: Unacknowledged transmitted packets, ordered by PSN.
    inflight: deque[_InflightPacket] = field(default_factory=deque)
    #: ``(last PSN, completion)`` of every message on the wire, in post
    #: order — so in PSN order: they leave at the front.
    completions: deque = field(default_factory=deque)
    #: Verified deliveries awaiting the host (``recv``/``poll``).
    receive_queue: deque[Any] = field(default_factory=deque)
    #: The in-order reception lane (``transport._RxLane``).
    rx_lane: Any = None
    #: The immutable Ethernet/IP/UDP headers toward the peer.
    peer_headers: tuple | None = None
    #: Duplicate/out-of-window packets seen (diagnostics).
    duplicates_dropped: int = 0
    out_of_order_dropped: int = 0
    retransmissions: int = 0
    #: Retransmission Timer: the instant of the last ACK that removed a
    #: packet from ``inflight``, and whether its one entry is scheduled.
    progress_at: float = 0.0
    timer_filed: bool = False

    def record_send(self, packet: Any, now: float, ack_delay_us: float = 0.0) -> int:
        """Allocate the next PSN and track the packet as in-flight."""
        psn = self.next_send_psn
        self.next_send_psn += 1
        self.inflight.append(_InflightPacket(psn, packet, now, ack_delay_us))
        return psn

    def timer_deadline(self, timeout_us: float) -> float:
        """When the timer expires: *timeout_us* plus the responder's
        verification after the oldest packet last left or, if later, the
        last ACK made progress (the IB RC restart rule)."""
        oldest = self.inflight[0]
        return (max(oldest.sent_at, self.progress_at) + timeout_us
                + oldest.ack_delay_us)

    def ack_through(self, acked_psn: int) -> int:
        """Cumulative ACK: drop all in-flight packets with PSN <= acked.

        Returns the number of packets newly acknowledged.
        """
        count = 0
        while self.inflight and self.inflight[0].psn <= acked_psn:
            self.inflight.popleft()
            count += 1
        return count
