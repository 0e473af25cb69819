"""The RoCE reliable transport (§4.2, Figure 2 dataflow).

Transmission path: the Req handler receives a work request, the payload
is fetched over DMA and attested, the Request generation module appends
IB/UDP/IP headers (resolving the destination MAC through the ARP
server) and hands the packet to the 100Gb MAC.

Reception path: the Request decoder parses headers, enforces in-order
PSNs (go-back-N with cumulative ACKs and NAKs), passes the attested
message to the attestation kernel, and only a *successfully verified*
message is delivered to the receive queue — a failed verification does
not advance the PSN window, so the sender's retransmission of the
genuine packet is still accepted.

Reliability: "TNIC guarantees packet retransmission between two correct
nodes until their successful reception" (§8.5).  A NAK, and the expiry
of the per-QP retransmission timer, go back N: every unacknowledged
packet is resent in order.  The timer runs while packets are in flight
and expires ``retransmit_timeout_us`` plus the responder's verification
of the oldest packet's message after that packet last left or, if
later, after the last ACK that made progress (the IB RC rule); a
message whose oldest packet is out of retries fails as a whole.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any

from repro.core.attestation import AttestationError, AttestationKernel, AttestedMessage
from repro.net.arp import ArpServer
from repro.net.body import join as join_body
from repro.net.body import materialize
from repro.net.body import segment as segment_body
from repro.net.mac import EthernetMac
from repro.net.packet import (
    AttestationTrailer,
    EthernetHeader,
    IbTransportHeader,
    Ipv4Header,
    Packet,
    RdmaOpcode,
    UdpHeader,
)
from repro.roce.queue_pair import QueuePair
from repro.roce.state_tables import CompletionEntry, QueuePairState
from repro.sim.events import Event
from repro.sim.instrument import (
    NULL_SPAN,
    TRACE_PARENT,
    count,
    emit,
    flight_trigger,
    gauge_set,
    span_begin,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.clock import Simulator


class TransportError(Exception):
    """Raised when a reliable transfer permanently fails."""


class _RxLane:
    """Per-QP in-order reception lane feeding the verification pipeline.

    A state machine, not an actor: accepted packets wait in a FIFO, at
    most one verification is in flight, and the lane advances only from
    :meth:`accept` (while idle) and from that verification's completion
    (:meth:`_verified`).
    """

    __slots__ = ("kernel", "state", "queue", "verifying",
                 "next_arrival_psn", "partial")

    def __init__(self, kernel: "RoceKernel", state: QueuePairState) -> None:
        self.kernel = kernel
        self.state = state
        #: Accepted packets not yet processed; emptied by a rejection.
        self.queue: deque = deque()
        #: ``(packet, message, segments, vspan)`` of the verification in
        #: flight; ``None`` while the lane is idle.
        self.verifying: tuple | None = None
        #: Next PSN accepted off the wire (may run ahead of the
        #: delivered watermark while verification is in flight).
        self.next_arrival_psn = 0
        #: Payload chunks of a partially received multi-packet message
        #: (memoryview slices of the sender's buffer until reassembly).
        self.partial: list = []

    def accept(self, packet: Packet) -> None:
        """Take the next in-order *packet* off the wire."""
        self.next_arrival_psn += 1
        self.queue.append(packet)
        if self.verifying is None:
            self._advance()

    def _advance(self) -> None:
        """Process queued packets in order until one has to be verified
        (:meth:`_verified` continues from there) or none is left.

        Multi-packet messages (SEND First/Middle/Last) are reassembled
        here: non-final segments accumulate in the lane, and PSN-window
        advancement, verification, ACK and host delivery all happen at
        the final segment, covering the whole message — so a failed
        verification rewinds to the message's *first* PSN and go-back-N
        re-supplies the entire message.
        """
        kernel = self.kernel
        queue = self.queue
        while queue:
            packet = queue.popleft()
            segments = packet.meta.get("segments", 1)
            if segments > 1:
                seg_index = packet.meta["seg_index"]
                if seg_index != len(self.partial):
                    # Mid-message corruption of the segment sequence.
                    kernel._reject(self)
                    return
                self.partial.append(packet.payload)
                if seg_index < segments - 1:
                    continue  # await the remaining segments
                # Reassembly is the digest boundary: one join over the
                # view segments produces the only receiver-side copy.
                payload = join_body(self.partial)
                self.partial = []
            else:
                if self.partial:
                    # A single-packet message arrived mid-reassembly.
                    kernel._reject(self)
                    return
                payload = materialize(packet.payload)
            if kernel.attestation is None:
                # The untrusted RDMA-hw baseline: raw bytes, no check.
                kernel._deliver(self, packet, payload, psn_span=segments)
            elif packet.trailer is None:
                # A trusted device accepts only attested messages: a
                # stripped trailer is rejected exactly like a bad MAC.
                kernel.verification_failures += 1
                kernel._reject(self)
                return
            elif self._verify(packet, payload, segments):
                return

    def _verify(self, packet: Packet, payload: bytes, segments: int) -> bool:
        """Queue the reassembled message on the attestation kernel;
        False if it was refused on the spot (no key for the session)."""
        kernel = self.kernel
        trailer = packet.trailer
        message = AttestedMessage(payload, trailer.alpha, trailer.session_id,
                                  trailer.device_id, trailer.send_cnt)
        # The packet metadata carries the sender's tnic.tx span
        # (written on the transmitting device), so the receiving
        # replica's verification joins the same causal trace.
        vspan = NULL_SPAN
        if kernel.sim.telemetry is not None:
            vspan = span_begin(kernel.sim, "roce.rx_verify",
                               parent=packet.meta.get(TRACE_PARENT),
                               node=kernel.ip, qp=self.state.qp.qp_number)
        try:
            kernel.attestation.verify_event(
                self.state.qp.session_id, message, self._verified)
        except AttestationError:
            kernel._verification_failed(self, vspan)
            return False
        self.verifying = (packet, message, segments, vspan)
        return True

    def _verified(self, payload: bytes | None,
                  error: AttestationError | None) -> None:
        """The verification in flight left the HMAC pipeline: deliver or
        reject its message, then take up the packets queued behind it."""
        packet, message, segments, vspan = self.verifying
        self.verifying = None
        if error is not None:
            # Forged/tampered/replayed: do not advance the window.
            self.kernel._verification_failed(self, vspan)
        else:
            if vspan is not NULL_SPAN:
                vspan.end(status="ok")
            self.kernel._deliver(self, packet, payload,
                                 message=message, psn_span=segments)
        self._advance()


class RoceKernel:
    """One RoCE protocol kernel instance attached to a MAC."""

    def __init__(
        self,
        sim: "Simulator",
        mac: EthernetMac,
        arp: ArpServer,
        ip: str,
        attestation: AttestationKernel | None = None,
        retransmit_timeout_us: float = 200.0,
        max_retries: int = 25,
        path_mtu: int = 4096,
    ) -> None:
        self.sim = sim
        self.mac = mac
        self.arp = arp
        self.ip = ip
        self.attestation = attestation
        self.retransmit_timeout_us = retransmit_timeout_us
        self.max_retries = max_retries
        if path_mtu < 256:
            raise ValueError("path MTU must be at least 256 bytes")
        #: RoCE path MTU: messages larger than this are segmented into
        #: FIRST/MIDDLE/LAST packets and reassembled in order (the IB
        #: SEND First/Middle/Last opcode family).
        self.path_mtu = path_mtu
        #: RC flow control: at most this many unacknowledged packets per
        #: QP; further work requests queue until ACKs open the window.
        self.send_window = 128
        #: The State tables: one record per QP, by QP number.
        self.tables: dict[int, QueuePairState] = {}
        #: "the RoCE kernel is configured to hold up to 500 connections".
        self.max_connections = 500
        #: Optional device hook handed each verified delivery
        #: (``hook(state, item)``) instead of the record's receive queue;
        #: lets the device service one-sided operations without host help.
        self.deliver_hook = None
        self.verification_failures = 0
        mac.ingress = self.ingress

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------
    def create_qp(self, qp: QueuePair) -> None:
        """Install a queue pair in the state tables."""
        if qp.qp_number in self.tables:
            raise ValueError(f"QP {qp.qp_number} already created")
        if len(self.tables) >= self.max_connections:
            raise RuntimeError(
                f"RoCE kernel connection table full ({self.max_connections})")
        state = self.tables[qp.qp_number] = QueuePairState(qp)
        state.rx_lane = _RxLane(self, state)

    def connect_qp(self, qp_number: int, remote_qp_number: int) -> None:
        """Bind the local QP to the peer's QP number (via ibv_sync)."""
        if remote_qp_number < 0:
            raise ValueError("remote_qp_number must be >= 0")
        self.qp_state(qp_number).remote_qp_number = remote_qp_number

    def qp_state(self, qp_number: int) -> QueuePairState:
        """The State-tables record of QP *qp_number*."""
        try:
            return self.tables[qp_number]
        except KeyError:
            raise KeyError(f"unknown QP {qp_number}") from None

    # ------------------------------------------------------------------
    # Transmission path
    # ------------------------------------------------------------------
    def post_send(
        self,
        qp_number: int,
        message: AttestedMessage | bytes,
        opcode: RdmaOpcode = RdmaOpcode.SEND,
        meta: dict[str, Any] | None = None,
        completion: Event | None = None,
    ) -> Event:
        """Queue a reliable send; the event triggers on ACK (or fails).

        *message* is either an :class:`AttestedMessage` (trusted path)
        or raw bytes (the untrusted RDMA-hw baseline uses the same
        kernel without an attestation kernel attached).  *completion*
        is the send's completion event when a layer above already made
        it (``TnicDevice.send``): it is triggered instead of a fresh one.
        """
        state = self.qp_state(qp_number)
        if state.remote_qp_number < 0:
            raise TransportError(f"QP {qp_number} is not connected (run ibv_sync)")
        payload = (
            message.payload if isinstance(message, AttestedMessage) else message
        )
        chunks = self._segment(payload)
        if completion is None:
            completion = Event(self.sim)
        state.tx_backlog.append(
            (message, opcode, dict(meta or {}), chunks, completion))
        self._pump_tx(state)
        return completion

    def _pump_tx(self, state: QueuePairState) -> None:
        """Transmit backlogged work requests while the window allows.

        A message enters the wire only when all its segments fit in the
        send window (or the window is empty, so oversized messages can
        still make progress)."""
        qp_number = state.qp.qp_number
        backlog = state.tx_backlog
        while backlog:
            message, opcode, meta, chunks, completion = backlog[0]
            fits = len(state.inflight) + len(chunks) <= self.send_window
            if not fits and state.inflight:
                break
            backlog.popleft()
            last_psn = -1
            trailer = None
            ack_delay_us = 0.0
            if isinstance(message, AttestedMessage):
                trailer = AttestationTrailer(message.alpha, message.session_id,
                                             message.device_id, message.counter)
                # The peer ACKs once its identical hardware has verified
                # the message: what verify_event will charge there.
                ack_delay_us = self.attestation.hmac_engine.occupancy_us(
                    len(message.payload) + 8)
            segments = len(chunks)
            for index, chunk in enumerate(chunks):
                seg_meta = dict(meta)
                if segments > 1:
                    seg_meta["segments"] = segments
                    seg_meta["seg_index"] = index
                seg_meta["src_qp"] = qp_number
                packet = Packet(
                    *self._headers(state),
                    IbTransportHeader(opcode, state.remote_qp_number,
                                      state.next_send_psn),
                    chunk,
                    # α rides the LAST segment.
                    trailer if index == segments - 1 else None,
                    seg_meta,
                )
                psn = state.record_send(packet, self.sim.now, ack_delay_us)
                if self.sim.telemetry is not None:
                    # Gate at the call site: packet.describe() is too
                    # expensive to build for a discarded record.
                    emit(self.sim, "roce.tx", packet.describe(), node=self.ip)
                    count(self.sim, "roce.tx_packets", node=self.ip)
                self.mac.transmit(packet)
                last_psn = psn
            state.next_send_msn += 1
            if self.sim.telemetry is not None:
                gauge_set(self.sim, "roce.inflight", len(state.inflight),
                          node=self.ip, qp=qp_number)
            # The message completes when its final segment is acked.
            state.completions.append((last_psn, completion))
            if not state.timer_filed:
                self._file_timer(state)

    def _segment(self, payload: bytes) -> list:
        """Split *payload* into path-MTU-sized chunks (>= one chunk).

        Multi-MTU messages come back as ``memoryview`` slices over the
        one payload buffer — segmentation, transmission, per-hop
        delivery and retransmission all alias it copy-free; the
        receiver materialises bytes once, at reassembly
        (:func:`repro.net.body.join`)."""
        return segment_body(payload, self.path_mtu)

    def _headers(self, state: QueuePairState) -> tuple:
        """``(eth, ip, udp)`` of a packet toward the QP's peer.  ARP is
        consulted per packet, as the Request generation module does; the
        headers are rebuilt only when it names a different MAC."""
        qp = state.qp
        dst_mac = self.arp.lookup(qp.remote_ip)
        headers = state.peer_headers
        if headers is None or headers[0].dst_mac != dst_mac:
            headers = state.peer_headers = (
                EthernetHeader(self.mac.address, dst_mac),
                Ipv4Header(qp.local_ip, qp.remote_ip),
                UdpHeader(qp.local_port, qp.remote_port),
            )
        return headers

    # ------------------------------------------------------------------
    # Retransmission timer
    # ------------------------------------------------------------------
    def _file_timer(self, state: QueuePairState) -> None:
        """Schedule the QP's one timer entry at the deadline now in force
        (the absolute instant: a relative timeout can land a bit off it)."""
        state.timer_filed = True
        self.sim.call_at(state.timer_deadline(self.retransmit_timeout_us),
                         self._timer_fired, state)

    def _timer_fired(self, state: QueuePairState) -> None:
        """The timer entry came up: expire if the deadline stands, then
        move to the deadline in force — or lapse with nothing in flight."""
        if state.inflight and state.timer_deadline(
                self.retransmit_timeout_us) <= self.sim._now:
            if self.sim.telemetry is not None:
                qp_number = state.qp.qp_number
                emit(self.sim, "roce.retransmit",
                     f"timeout qp={qp_number}", inflight=len(state.inflight),
                     node=self.ip)
                count(self.sim, "roce.retransmit_timeouts",
                      node=self.ip, qp=qp_number)
            self._go_back_n(state)
        if state.inflight:
            self._file_timer(state)
        else:
            state.timer_filed = False

    def _go_back_n(self, state: QueuePairState) -> None:
        """Timer expiry or NAK: resend every unacknowledged packet in
        order, which restarts the timer.  A message whose oldest packet
        is out of retries fails instead, every segment at once."""
        inflight = state.inflight
        while inflight and inflight[0].retries >= self.max_retries:
            last_psn, completion = state.completions.popleft()
            state.ack_through(last_psn)
            if not completion.triggered:
                completion.fail(TransportError(
                    f"send psn={last_psn} failed: retry limit exceeded"))
        now = self.sim._now
        telemetry = self.sim.telemetry
        for entry in inflight:
            entry.retries += 1
            entry.sent_at = now
            state.retransmissions += 1
            if telemetry is not None:
                count(self.sim, "roce.retransmissions", node=self.ip)
            self.mac.transmit(entry.packet)
        if state.tx_backlog:
            self._pump_tx(state)  # a failed message freed window space

    # ------------------------------------------------------------------
    # Reception path
    # ------------------------------------------------------------------
    def ingress(self, packet: Packet) -> None:
        """The Request decoder, installed as ``EthernetMac.ingress``:
        untrusted bytes enter the kernel through this parameter."""
        if packet.ip.dst_ip != self.ip:
            return  # not ours (promiscuous fabric delivery)
        if packet.bth.opcode in (RdmaOpcode.ACK, RdmaOpcode.NAK):
            self._handle_ack(packet)
        else:
            self._handle_data(packet)

    def _handle_ack(self, packet: Packet) -> None:
        state = self.tables.get(packet.bth.dest_qp)
        if state is None:
            return
        if packet.bth.opcode is RdmaOpcode.NAK:
            # Receiver is missing packets: retransmit immediately.
            self._go_back_n(state)
            return
        acked_psn = packet.bth.psn
        if state.ack_through(acked_psn):
            state.progress_at = self.sim._now
        qp_number = state.qp.qp_number
        if self.sim.telemetry is not None:
            gauge_set(self.sim, "roce.inflight", len(state.inflight),
                      node=self.ip, qp=qp_number)
        if state.tx_backlog:
            self._pump_tx(state)  # ACKs opened window space
        pending = state.completions
        while pending and pending[0][0] <= acked_psn:
            psn, completion = pending.popleft()
            if not completion.triggered:
                completion.succeed(CompletionEntry(
                    qp_number, packet.meta.get("msn", psn), "send", True))

    def _handle_data(self, packet: Packet) -> None:
        state = self.tables.get(packet.bth.dest_qp)
        if state is None:
            return
        lane = state.rx_lane
        psn = packet.bth.psn
        if psn == lane.next_arrival_psn:
            lane.accept(packet)
        elif psn < lane.next_arrival_psn:
            # Duplicate of an already-accepted packet: re-ACK, drop.
            state.duplicates_dropped += 1
            if state.expected_recv_psn > 0:
                self._send_ack(state, state.expected_recv_psn - 1,
                               state.next_recv_msn)
        else:
            # Gap: go-back-N, ask the sender to rewind.
            state.out_of_order_dropped += 1
            self._send_nak(state)

    def _verification_failed(self, lane: _RxLane, vspan) -> None:
        vspan.end(status="rejected")
        self.verification_failures += 1
        self._reject(lane)

    def _reject(self, lane: _RxLane) -> None:
        """Rewind the arrival cursor to the delivered watermark and
        discard the queued packets; a correct sender's go-back-N
        retransmission will re-supply the genuine sequence."""
        state = lane.state
        rewind_to = state.expected_recv_psn
        if self.sim.telemetry is not None:
            qp_number = state.qp.qp_number
            emit(self.sim, "roce.reject",
                 f"qp={qp_number} rewind to psn={rewind_to}",
                 node=self.ip)
            count(self.sim, "roce.reject", node=self.ip)
            flight_trigger(self.sim, "roce.reject", node=self.ip,
                           qp=qp_number, rewind_to=rewind_to)
        lane.queue.clear()
        lane.partial = []
        lane.next_arrival_psn = rewind_to
        self._send_nak(state)

    def _deliver(
        self,
        lane: _RxLane,
        packet: Packet,
        payload: bytes,
        message: AttestedMessage | None = None,
        psn_span: int = 1,
    ) -> None:
        """Advance the receive window over a verified message and hand it
        on once: to the device hook, or, with no device attached, to the
        record's receive queue."""
        state = lane.state
        state.expected_recv_psn += psn_span
        msn = state.next_recv_msn
        state.next_recv_msn += 1
        item = {
            "payload": payload,
            "message": message,
            "opcode": packet.bth.opcode,
            "meta": dict(packet.meta),
            "msn": msn,
        }
        if self.sim.telemetry is not None:
            emit(self.sim, "roce.rx",
                 f"delivered qp={state.qp.qp_number} msn={msn} {len(payload)}B",
                 node=self.ip)
            count(self.sim, "roce.rx_delivered", node=self.ip)
        self._send_ack(state, packet.bth.psn, msn)
        if self.deliver_hook is not None:
            self.deliver_hook(state, item)
        else:
            state.receive_queue.append(item)

    # ------------------------------------------------------------------
    # Control packets
    # ------------------------------------------------------------------
    def _control_packet(self, state: QueuePairState, opcode: RdmaOpcode,
                        psn: int, msn: int) -> Packet:
        return Packet(
            *self._headers(state),
            IbTransportHeader(opcode, state.remote_qp_number, psn, False),
            b"", None, {"msn": msn},
        )

    def _send_ack(self, state: QueuePairState, psn: int, msn: int) -> None:
        self.mac.transmit(self._control_packet(state, RdmaOpcode.ACK, psn, msn))

    def _send_nak(self, state: QueuePairState) -> None:
        self.mac.transmit(self._control_packet(
            state, RdmaOpcode.NAK, state.expected_recv_psn, 0))
