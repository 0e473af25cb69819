"""Packet formats for the TNIC datapath.

The RoCE v2 encapsulation from §4.2: an InfiniBand transport header
(BTH) carried over UDP/IPv4/Ethernet.  TNIC extends the RDMA payload
with a 64 B attestation α plus metadata — a 4 B session id, a 4 B device
id and the sender's ``send_cnt`` ("the attestation kernel extends the
payload by appending a 64B attestation and the metadata").

Headers are plain dataclasses with a fixed ``size_bytes`` each;
:meth:`Packet.wire_size` accounts for every header and trailer byte so
the bandwidth models see realistic sizes.
"""

from __future__ import annotations

import enum
from dataclasses import field, replace
from typing import Any

from repro.sim.record import Record, record

ETHERNET_HEADER_BYTES = 14 + 4  # header + FCS
IPV4_HEADER_BYTES = 20
UDP_HEADER_BYTES = 8
BTH_BYTES = 12
ROCE_V2_UDP_PORT = 4791

#: "appending a 64B attestation" — the α field on the wire.
ATTESTATION_BYTES = 64
#: "a 4B id for the session id of the sender, a 4B ID for the device id
#:  (unique per device), and the appropriate send_cnt" (8 B counter).
ATTESTATION_METADATA_BYTES = 4 + 4 + 8

#: Every packet carries the same four headers (58 B) ...
HEADERS_BYTES = (
    ETHERNET_HEADER_BYTES + IPV4_HEADER_BYTES + UDP_HEADER_BYTES + BTH_BYTES
)
#: ... and an attested one the same trailer (80 B).
TRAILER_BYTES = ATTESTATION_BYTES + ATTESTATION_METADATA_BYTES


class RdmaOpcode(enum.Enum):
    """RDMA verbs carried in the BTH opcode field."""

    SEND = "send"
    WRITE = "write"
    READ_REQUEST = "read_request"
    READ_RESPONSE = "read_response"
    ACK = "ack"
    NAK = "nak"


@record
class EthernetHeader(Record):
    src_mac: str
    dst_mac: str

    size_bytes = ETHERNET_HEADER_BYTES


@record
class Ipv4Header(Record):
    src_ip: str
    dst_ip: str

    size_bytes = IPV4_HEADER_BYTES


@record
class UdpHeader(Record):
    src_port: int
    dst_port: int = ROCE_V2_UDP_PORT

    size_bytes = UDP_HEADER_BYTES


@record
class IbTransportHeader(Record):
    """InfiniBand Base Transport Header (the RoCE transport layer)."""

    opcode: RdmaOpcode
    dest_qp: int
    psn: int
    ack_req: bool = True

    size_bytes = BTH_BYTES


@record
class AttestationTrailer(Record):
    """The TNIC extension appended to every attested payload."""

    alpha: bytes
    session_id: int
    device_id: int
    send_cnt: int

    size_bytes = TRAILER_BYTES

    def __post_init__(self) -> None:
        if self.send_cnt < 0:
            raise ValueError("send_cnt must be >= 0")


@record
class Packet(Record):
    """One RoCE v2 packet on the simulated wire."""

    eth: EthernetHeader
    ip: Ipv4Header
    udp: UdpHeader
    bth: IbTransportHeader
    #: Either real bytes or a zero-copy ``memoryview`` slice of the
    #: sender's buffer (multi-MTU segments; see :mod:`repro.net.body`).
    payload: bytes | memoryview = b""
    trailer: AttestationTrailer | None = None
    #: Free-form annotations (remote address for WRITE, MSN for ACK, ...).
    meta: dict[str, Any] = field(default_factory=dict)

    def wire_size(self) -> int:
        """Total bytes the packet occupies on the wire."""
        if self.trailer is None:
            return HEADERS_BYTES + len(self.payload)
        return HEADERS_BYTES + len(self.payload) + TRAILER_BYTES

    def with_payload(self, payload: bytes) -> "Packet":
        """Copy of this packet carrying a different payload (tampering)."""
        return replace(self, payload=payload)

    def describe(self) -> str:
        """Short human-readable summary for traces."""
        att = (
            f" att(dev={self.trailer.device_id},cnt={self.trailer.send_cnt})"
            if self.trailer
            else ""
        )
        return (
            f"{self.bth.opcode.value} psn={self.bth.psn} qp={self.bth.dest_qp} "
            f"{self.ip.src_ip}->{self.ip.dst_ip} {len(self.payload)}B{att}"
        )
