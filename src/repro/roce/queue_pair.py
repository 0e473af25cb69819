"""Queue pairs: the RDMA connection abstraction.

A queue pair (QP) names one reliable connection (RC) between two
endpoints.  TNIC binds each QP to an attestation *session* so the
Keystore and Counters store are indexed consistently with the transport
state (§4.1: "one shared key for each session").  The QP's protocol
state, the peer's QP number included, lives in its State-tables record
(:class:`repro.roce.state_tables.QueuePairState`).
"""

from __future__ import annotations

from repro.sim.record import Record, record


@record
class QueuePair(Record):
    """Identity of one reliable connection."""

    qp_number: int
    session_id: int
    local_ip: str
    remote_ip: str
    local_port: int = 4791
    remote_port: int = 4791

    def __post_init__(self) -> None:
        if self.qp_number < 0:
            raise ValueError("qp_number must be >= 0")
        if self.session_id < 0:
            raise ValueError("session_id must be >= 0")
        if self.local_ip == self.remote_ip and self.local_port == self.remote_port:
            raise ValueError("queue pair endpoints must differ")
