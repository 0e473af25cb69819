"""The RoCE protocol kernel (§4.2).

A reliable transport service over the IB Transport Protocol with
UDP/IPv4 (RoCE v2): queue pairs, packet sequence numbers (PSN), message
sequence numbers (MSN), cumulative ACKs, a retransmission timer, and
FIFO per-connection delivery — the reliability layer that lets TNIC
guarantee "no messages can be lost, re-ordered, or doubly executed".
"""

from repro.roce.queue_pair import QueuePair
from repro.roce.state_tables import CompletionEntry, QueuePairState
from repro.roce.transport import RoceKernel

__all__ = [
    "CompletionEntry",
    "QueuePair",
    "QueuePairState",
    "RoceKernel",
]
