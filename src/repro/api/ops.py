"""Network APIs (Table 1).

"TNIC executes trusted one-sided, reliable RDMA with the same
reliability guarantees as the classical one-sided RDMA over Reliable
Connection (RC), i.e., a FIFO ordering (per connection), similar to
TCP/IP networking."

Each function mirrors one Table-1 entry and returns a simulation event
(completion) so callers compose them inside simulation processes::

    completion = yield auth_send(conn, b"request")
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.api.connection import IbvConnection
from repro.core.attestation import AttestedMessage
from repro.net.packet import RdmaOpcode
from repro.sim.instrument import NULL_SPAN, span_begin
from repro.stack.rdma_lib import WorkRequest

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.events import Event


def auth_send(conn: IbvConnection, payload: bytes) -> "Event":
    """Transmit an attested message with RDMA reliable writes.

    The payload is staged into registered ibv memory, DMA'd into the
    device, attested inline by the attestation kernel and reliably
    delivered; the event triggers once the peer ACKs.

    This is also where a *logical request* is born, so with telemetry
    attached it opens the ``request.auth_send`` root span — the apex of
    the causal trace — and names it as the work request's parent.
    Every downstream stage (post/DMA/HMAC/wire/rx-verify, local and on
    the receiving replica) joins this trace; the root
    closes when the peer's ACK triggers the completion event.
    """
    _require_synced(conn)
    sim = conn.node.sim
    address = conn.stage(payload)
    span = NULL_SPAN
    if sim.telemetry is not None:
        span = span_begin(sim, "request.auth_send",
                          node=conn.node.name, qp=conn.qp_number,
                          bytes=len(payload))
    request = WorkRequest(RdmaOpcode.SEND, conn.qp_number, address,
                          len(payload), conn.tx_region.lkey, 0, None, span)
    completion = conn.node.rdma.post(request)
    if span is not NULL_SPAN:
        completion.callbacks.append(lambda _event: span.end())
    return completion


def rem_write(conn: IbvConnection, remote_offset: int, payload: bytes) -> "Event":
    """Write *payload* into the peer's registered window (one-sided)."""
    _require_synced(conn)
    if conn.remote_rkey is None:
        raise RuntimeError("ibv_sync did not exchange a remote window")
    if remote_offset < 0 or remote_offset + len(payload) > conn.remote_size:
        raise ValueError("remote write outside the peer's window")
    address = conn.stage(payload)
    request = WorkRequest(
        opcode=RdmaOpcode.WRITE,
        qp_number=conn.qp_number,
        local_addr=address,
        length=len(payload),
        lkey=conn.tx_region.lkey,
        remote_addr=conn.remote_base + remote_offset,
        rkey=conn.remote_rkey,
    )
    return conn.node.rdma.post(request)


def rem_read(conn: IbvConnection, remote_offset: int, length: int) -> "Event":
    """Fetch *length* bytes from the peer's registered window."""
    _require_synced(conn)
    if conn.remote_rkey is None:
        raise RuntimeError("ibv_sync did not exchange a remote window")
    if length < 0:
        raise ValueError(f"negative read length {length}")
    if remote_offset < 0 or remote_offset + length > conn.remote_size:
        raise ValueError("remote read outside the peer's window")
    return conn.node.device.read_remote(
        conn.qp_number, conn.remote_base + remote_offset, length,
        rkey=conn.remote_rkey,
    )


def poll(conn: IbvConnection, max_entries: int = 16):
    """Poll for completed (verified) incoming operations.

    "poll() is updated only when the message verification succeeds at
    the TNIC hardware."
    """
    return conn.node.rdma.poll(conn.qp_number, max_entries)


def recv(conn: IbvConnection):
    """Pop the next verified inbound message (payload + metadata)."""
    return conn.node.rdma.receive(conn.qp_number)


def local_send(conn: IbvConnection, payload: bytes) -> "Event":
    """Generate an attested message without transmitting it.

    Used for single-node setups (A2M's trusted log) and for the
    equivocation-free multicast pattern: attest once with local_send()
    and unicast the identical attested message to every peer (§6.1).
    """
    return conn.node.device.local_attest(conn.session_id, payload)


def local_verify(conn: IbvConnection, message: AttestedMessage) -> "Event":
    """Verify an attested message locally (transferable authentication)."""
    return conn.node.device.local_verify(conn.session_id, message)


def _require_synced(conn: IbvConnection) -> None:
    if not conn.synced:
        raise RuntimeError(
            "connection is not synchronised; call ibv_sync() first"
        )
