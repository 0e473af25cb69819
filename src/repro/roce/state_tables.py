"""The State tables of the RoCE protocol kernel (§4.2).

"the kernel implements State tables to store protocol queues (e.g.,
receive/send/completion queues) as well as important metadata, i.e.,
packet sequence numbers (PSNs), message sequence numbers (MSNs), and a
Retransmission Timer."
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True, slots=True)
class CompletionEntry:
    """One entry of a completion queue."""

    qp_number: int
    msn: int
    opcode: str
    ok: bool
    detail: str = ""


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
    """Per-QP protocol state."""

    qp_number: int
    #: PSN of the next packet this side will transmit.
    next_send_psn: int = 0
    #: PSN the receive side expects next (in-order delivery).
    expected_recv_psn: int = 0
    #: MSN counters: one per message, whose segments take one PSN each.
    next_send_msn: int = 0
    next_recv_msn: int = 0
    #: Unacknowledged transmitted packets, ordered by PSN.
    inflight: deque[_InflightPacket] = field(default_factory=deque)
    #: Messages verified and delivered, awaiting host consumption.
    receive_queue: deque[Any] = field(default_factory=deque)
    #: Completion entries awaiting poll().
    completion_queue: deque[CompletionEntry] = field(default_factory=deque)
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


class StateTables:
    """All queue-pair state held by one RoCE kernel instance."""

    def __init__(self, max_connections: int = 500) -> None:
        # "the RoCE kernel is configured to hold up to 500 connections".
        self.max_connections = max_connections
        self._queue_pairs: dict[int, QueuePairState] = {}

    def create(self, qp_number: int) -> QueuePairState:
        if qp_number in self._queue_pairs:
            raise ValueError(f"QP {qp_number} already exists")
        if len(self._queue_pairs) >= self.max_connections:
            raise RuntimeError(
                f"RoCE kernel connection table full ({self.max_connections})"
            )
        state = QueuePairState(qp_number=qp_number)
        self._queue_pairs[qp_number] = state
        return state

    def get(self, qp_number: int) -> QueuePairState:
        try:
            return self._queue_pairs[qp_number]
        except KeyError:
            raise KeyError(f"unknown QP {qp_number}") from None

    def __contains__(self, qp_number: int) -> bool:
        return qp_number in self._queue_pairs

    def __len__(self) -> int:
        return len(self._queue_pairs)

    def all_states(self) -> list[QueuePairState]:
        return list(self._queue_pairs.values())
