"""The TNIC device: Figure 2's datapath wired together.

TX: the Req handler accepts a work request from the host, the DMA
engine fetches the payload from host (ibv) memory, the attestation
kernel produces α inline, and the RoCE kernel emits the packet through
the 100Gb MAC.

RX: the RoCE kernel enforces ordering and reliability, the attestation
kernel verifies α, and only then is the message handed to the device
(:meth:`TnicDevice._on_deliver`), which routes it exactly once: to the
host's receive queue, read by ``recv()`` and ``poll()`` alike, or to a
push callback.

The device also services one-sided ``rem_read``/``rem_write``: a WRITE
carries a remote ibv-memory address and the rkey of the window it
targets, and is placed there by the *remote* device after verification;
a READ is a request/response exchange carrying the same two.  The
responder places or reads nothing its host memory refuses (an rkey
that names no registered region, or bytes outside the region it
names): it counts the refusal, and a refused READ fails the
requester's event with :class:`RemoteAccessError`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Protocol

from repro.core.attestation import (
    AttestationError,
    AttestationKernel,
    AttestedMessage,
)
from repro.core.dma import DmaEngine
from repro.net.arp import ArpServer
from repro.net.mac import EthernetMac
from repro.net.packet import Packet, RdmaExtendedHeader, RdmaOpcode
from repro.roce.queue_pair import QueuePair
from repro.roce.state_tables import QueuePairState
from repro.roce.transport import RoceKernel
from repro.sim.events import Event
from repro.sim.instrument import NULL_SPAN, count, span_begin
from repro.sim.record import Record, record

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.clock import Simulator


class ReadTimeout(Exception):
    """A one-sided READ got no response within its deadline.

    The target may hold no registered memory, or the response was lost
    past the transport's retry budget; either way the requester must not
    wait forever (LIV005 — every network-facing completion composes a
    deadline)."""


class RemoteAccessError(Exception):
    """The responder's host memory refused a one-sided access: the rkey
    names no registered region, or the bytes lie outside the region it
    names."""


class HostMemoryPort(Protocol):
    """What the device needs from host memory (implemented by the
    stack's ``MemoryTable``): the one-sided port, which reaches only the
    registered region named by the rkey the peer presented.  Both
    methods raise :class:`RemoteAccessError` on a refused access."""

    def dma_write(self, address: int, data: bytes, rkey: int | None) -> None: ...

    def dma_read(self, address: int, length: int, rkey: int | None) -> bytes: ...


class _TxStages:
    """One request in flight on the device's transmit side.

    Figure 2's TX datapath is a fixed pipeline per message, so it runs
    as a chain of scheduled calls, not as a process: each stage is a
    bound method the previous stage's resource files as its step
    (payload DMA → HMAC pipeline → wire), and this record carries the
    request between them.  Subclasses pick the stages after the DMA:
    ``_fetched``, and ``_attested`` when they attest.  ``done`` is the
    request's one completion event; every failure fails it.

    ``span`` stays :data:`NULL_SPAN` unless telemetry was attached when
    the request started; the stages touch it (and ``stage``) only behind
    ``span is not NULL_SPAN``, so an untraced request calls no hook.
    """

    __slots__ = ("device", "payload", "done", "session_id", "span", "stage")

    def __init__(self, device: "TnicDevice", payload: bytes, done: "Event") -> None:
        self.device = device
        self.payload = payload
        self.done = done
        self.session_id = -1
        self.span = self.stage = NULL_SPAN

    def _fetch(self) -> None:
        """Stage 1: DMA the payload from host (ibv) memory."""
        if self.span is not NULL_SPAN:
            self.stage = self.span.child("tnic.dma")
        payload = self.payload
        self.device.dma.transfer(len(payload), self._fetched, payload)

    def _attest(self) -> None:
        """Stage 2: attest inline; ``_attested`` gets the attested
        message when it leaves the HMAC pipeline."""
        if self.span is not NULL_SPAN:
            self.stage = self.span.child("attest.hmac")
        try:
            self.device.attestation.attest_event(
                self.session_id, self.payload, self._attested)
        except AttestationError as exc:  # no key for the session
            self._fail(exc)

    def _fail(self, exc: BaseException) -> None:
        self.span.end(status="error")
        if not self.done.triggered:
            self.done.fail(exc)


class _Send(_TxStages):
    """``TnicDevice.send``: DMA → attest (trusted devices) → RoCE → ACK."""

    __slots__ = ("qp_number", "opcode", "reth")

    def start_send(self, qp_number: int, opcode: RdmaOpcode,
                   reth: RdmaExtendedHeader | None, parent: Any) -> None:
        device = self.device
        sim = device.sim
        self.qp_number = qp_number
        self.opcode = opcode
        self.reth = reth
        # Continue the poster's trace; the packets carry this span, so
        # the remote rx-verify stage joins the tree right here.
        if sim.telemetry is not None:
            self.span = span_begin(sim, "tnic.tx", parent=parent,
                                   device=device.device_id,
                                   qp=qp_number, bytes=len(self.payload))
        try:
            self.session_id = device.roce.qp_state(qp_number).qp.session_id
        except KeyError as exc:
            self._fail(exc)
            return
        self._fetch()

    def _fetched(self, payload: bytes) -> None:
        if self.span is not NULL_SPAN:
            self.stage.end()
        if self.device.attestation is not None:
            self._attest()
        else:
            self._transmit(payload)

    def _attested(self, message: AttestedMessage) -> None:
        if self.span is not NULL_SPAN:
            self.stage.end()
        self._transmit(message)

    def _transmit(self, message: AttestedMessage | bytes) -> None:
        """Stage 3: the RoCE kernel triggers ``done`` on the ACK;
        ``_acked`` goes ahead of the layers above, already registered."""
        span = self.span if self.span is not NULL_SPAN else None
        if span is not None:
            self.stage = span.child("roce.tx")
        self.done.callbacks.insert(0, self._acked)
        try:
            self.device.roce.post_send(
                self.qp_number, message, self.opcode, self.reth, self.done,
                span)
        except Exception as exc:  # unconnected QP, no ARP entry, no link:
            self._fail(exc)       # the completion event is the error channel

    def _acked(self, done: "Event") -> None:
        if done._exception is not None:  # transport gave up on the send
            self.span.end(status="error")
            return
        if self.span is not NULL_SPAN:
            self.stage.end()
            self.span.end(status="ok")


class _LocalAttest(_TxStages):
    """``TnicDevice.local_attest``: DMA → attest, nothing on the wire."""

    __slots__ = ()

    def start_attest(self, session_id: int) -> None:
        device = self.device
        self.session_id = session_id
        if device.sim.telemetry is not None:
            self.span = span_begin(device.sim, "tnic.local_attest",
                                   device=device.device_id,
                                   bytes=len(self.payload))
        self._fetch()

    def _fetched(self, _payload: bytes) -> None:
        if self.span is not NULL_SPAN:
            self.stage.end()
        self._attest()

    def _attested(self, message: AttestedMessage) -> None:
        if self.span is not NULL_SPAN:
            self.stage.end()
            self.span.end()
        self.done.succeed(message)


class _LocalVerify(_TxStages):
    """``TnicDevice.local_verify``: DMA → HMAC occupancy → α check."""

    __slots__ = ("message",)

    def start_verify(self, session_id: int, message: AttestedMessage) -> None:
        self.session_id = session_id
        self.message = message
        self._fetch()

    def _fetched(self, payload: bytes) -> None:
        self.device.attestation.hmac_engine.occupy(
            len(payload), self._occupied, self.message)

    def _occupied(self, message: AttestedMessage) -> None:
        try:
            verdict = self.device.attestation.check_transferable(
                self.session_id, message)
        except AttestationError as exc:  # no key for the session
            self._fail(exc)
            return
        self.done.succeed(verdict)


class TnicDevice:
    """One TNIC SmartNIC: attestation kernel + RoCE kernel + MAC.

    The datapath starts no process.  The retransmission timer is one
    scheduled deadline per QP, filed and handled by the RoCE kernel
    (``RoceKernel._file_timer`` / ``_timer_fired``).  ``send``,
    ``local_attest`` and ``local_verify`` are each a chain of scheduled
    calls (:class:`_TxStages`) and their returned event is the only way
    an error is reported.
    """

    def __init__(
        self,
        sim: "Simulator",
        device_id: int,
        ip: str,
        mac_address: str,
        arp: ArpServer,
        trusted: bool = True,
    ) -> None:
        self.sim = sim
        self.device_id = device_id
        self.ip = ip
        self.trusted = trusted
        self.attestation = AttestationKernel(device_id, sim) if trusted else None
        self.dma = DmaEngine(sim)
        self.mac = EthernetMac(sim, mac_address)
        self.roce = RoceKernel(
            sim, self.mac, arp, ip, attestation=self.attestation
        )
        arp.register(ip, mac_address)
        self._host_memory: HostMemoryPort | None = None
        #: One-sided accesses this device refused as the responder.
        self.remote_access_refusals = 0
        self._pending_reads: dict[int, "Event"] = {}
        self._next_read_id = 0
        self._rx_callbacks: dict[int, Any] = {}
        self.roce.deliver_hook = self._on_deliver

    # ------------------------------------------------------------------
    # Control path (driver)
    # ------------------------------------------------------------------
    def attach_host_memory(self, memory: HostMemoryPort) -> None:
        """Register the host's ibv memory for DMA placement."""
        self._host_memory = memory

    def install_session(self, session_id: int, key: bytes) -> None:
        """Burn a session key (bootstrapping / attestation protocol)."""
        if self.attestation is None:
            raise RuntimeError("untrusted device has no attestation kernel")
        self.attestation.install_session(session_id, key)

    def create_qp(self, qp: QueuePair) -> None:
        self.roce.create_qp(qp)

    def connect_qp(self, qp_number: int, remote_qp_number: int) -> None:
        self.roce.connect_qp(qp_number, remote_qp_number)

    # ------------------------------------------------------------------
    # Data path — transmission
    # ------------------------------------------------------------------
    def send(
        self,
        qp_number: int,
        payload: bytes,
        opcode: RdmaOpcode = RdmaOpcode.SEND,
        reth: RdmaExtendedHeader | None = None,
        completion: "Event | None" = None,
        parent: Any = None,
    ) -> "Event":
        """Full TX datapath; the event triggers when the peer ACKs.

        On a trusted device the payload is attested inline; an untrusted
        device (the RDMA-hw baseline) skips the attestation kernel.
        Every failure along the way — unknown or unconnected QP, no
        session key, transport retry limit — fails the returned event.
        A one-sided operation passes its *reth*; *parent* is the poster's
        span (read only while traced).  A caller that already made the
        send's one completion event (``RdmaLibrary.post``) passes it as
        *completion*; the RoCE kernel triggers it.
        """
        done = Event(self.sim) if completion is None else completion
        _Send(self, payload, done).start_send(qp_number, opcode, reth, parent)
        return done

    def local_attest(self, session_id: int, payload: bytes) -> "Event":
        """local_send(): attest without transmitting (single-node use)."""
        if self.attestation is None:
            raise RuntimeError("untrusted device has no attestation kernel")
        done = Event(self.sim)
        _LocalAttest(self, payload, done).start_attest(session_id)
        return done

    def local_verify(self, session_id: int, message: AttestedMessage) -> "Event":
        """local_verify(): transferable-authentication check of α only."""
        if self.attestation is None:
            raise RuntimeError("untrusted device has no attestation kernel")
        done = Event(self.sim)
        _LocalVerify(self, message.payload, done).start_verify(session_id, message)
        return done

    # ------------------------------------------------------------------
    # Data path — reception
    # ------------------------------------------------------------------
    def poll(self, qp_number: int, max_entries: int = 16) -> list[dict[str, Any]]:
        """Pop up to *max_entries* verified deliveries — the poll() API.

        "poll() is updated only when the message verification succeeds
        at the TNIC hardware."  The entries are the records ``receive``
        pops: one queue, so each delivery is consumed once.
        """
        queue = self.roce.qp_state(qp_number).receive_queue
        entries: list[dict[str, Any]] = []
        while queue and len(entries) < max_entries:
            entries.append(queue.popleft())
        if entries and self.sim.telemetry is not None:
            count(self.sim, "device.host_rx", len(entries), device=self.device_id)
        return entries

    def receive(self, qp_number: int) -> dict[str, Any] | None:
        """Pop the next verified delivery for the host, if any."""
        queue = self.roce.qp_state(qp_number).receive_queue
        if not queue:
            return None
        if self.sim.telemetry is not None:
            count(self.sim, "device.host_rx", device=self.device_id)
        return queue.popleft()

    # ------------------------------------------------------------------
    # One-sided READ (serviced by the device, no host involvement)
    # ------------------------------------------------------------------
    def read_remote(
        self, qp_number: int, remote_addr: int, length: int,
        timeout_us: float = 100_000.0, rkey: int | None = None,
    ) -> "Event":
        """Issue a one-sided READ of the peer's window *rkey*; the event
        triggers with the bytes, fails with :class:`RemoteAccessError`
        when the responder refuses the access (no *rkey* is refused), or
        with :class:`ReadTimeout` after *timeout_us*.

        A READ is a request/response exchange over a lossy fabric: the
        target may never answer (no registered memory, dropped response
        past the retry budget), so the completion composes a deadline —
        the same idiom as :meth:`repro.api.rpc.RpcEndpoint.call`.
        """
        read_id = self._next_read_id
        self._next_read_id += 1
        result = self.sim.event()
        self._pending_reads[read_id] = result
        request = self.send(qp_number, b"", RdmaOpcode.READ_REQUEST,
                            RdmaExtendedHeader(remote_addr, rkey, length, read_id))

        def _on_request_failure(event) -> None:
            if not event.ok and not result.triggered:
                self._pending_reads.pop(read_id, None)
                result.fail(event._exception)

        request.callbacks.append(_on_request_failure)

        def _expire() -> None:
            pending = self._pending_reads.pop(read_id, None)
            if pending is not None and not pending.triggered:
                pending.fail(ReadTimeout(
                    f"READ {read_id} got no response within {timeout_us}us"
                ))

        self.sim.delayed_call(timeout_us, _expire)
        return result

    def _on_deliver(self, state: QueuePairState, item: dict[str, Any], packet: Packet) -> None:
        """Route one verified delivery exactly once: READ traffic is
        serviced here, a WRITE is placed at its *packet*'s RETH address
        through the rkey-gated port, and the rest (placed WRITEs
        included, as their notification) goes to the push callback or
        else to the host's receive queue.  A refused WRITE is counted and
        dropped; telling its requester needs a remote-access NAK the
        transport lacks."""
        opcode = item["opcode"]
        reth = packet.reth
        if opcode is RdmaOpcode.READ_REQUEST:
            if self._host_memory is not None:
                refused = None
                try:
                    data = self._host_memory.dma_read(
                        reth.remote_addr, reth.read_len, reth.rkey)
                except RemoteAccessError as exc:
                    self.remote_access_refusals += 1
                    data = b""
                    refused = str(exc)
                self.send(state.qp.qp_number, data, RdmaOpcode.READ_RESPONSE,
                          RdmaExtendedHeader(0, None, 0, reth.read_id, refused))
            return
        if opcode is RdmaOpcode.READ_RESPONSE:
            pending = self._pending_reads.pop(reth.read_id, None)
            if pending is not None and not pending.triggered:
                if reth.refused is not None:
                    pending.fail(RemoteAccessError(reth.refused))
                else:
                    pending.succeed(item["payload"])
            return
        if (opcode is RdmaOpcode.WRITE and self._host_memory is not None
                and reth is not None):
            try:
                self._host_memory.dma_write(
                    reth.remote_addr, item["payload"], reth.rkey)
            except RemoteAccessError:
                self.remote_access_refusals += 1
                return
        callback = self._rx_callbacks.get(state.qp.qp_number)
        if callback is not None:
            callback(item)
        else:
            state.receive_queue.append(item)

    def set_receive_callback(self, qp_number: int, callback) -> None:
        """Push-style reception: *callback(item)* runs on each verified
        delivery instead of queueing for ``receive()``/``poll()``.

        Used by the RPC layer; pass ``None`` to restore pull semantics.
        """
        if callback is None:
            self._rx_callbacks.pop(qp_number, None)
        else:
            self._rx_callbacks[qp_number] = callback

    def drain(self, qp_number: int) -> list[dict[str, Any]]:
        """Pop every pending verified message."""
        items = []
        while True:
            item = self.receive(qp_number)
            if item is None:
                return items
            items.append(item)

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def stats(self) -> "DeviceStats":
        """Aggregate device counters (NIC telemetry)."""
        states = self.roce.tables.values()
        retransmissions = sum(s.retransmissions for s in states)
        duplicates = sum(s.duplicates_dropped for s in states)
        return DeviceStats(
            device_id=self.device_id,
            tx_packets=self.mac.tx_packets,
            rx_packets=self.mac.rx_packets,
            tx_bytes=self.mac.tx_bytes,
            rx_bytes=self.mac.rx_bytes,
            attestations=(
                self.attestation.attest_count if self.attestation else 0
            ),
            verifications=(
                self.attestation.verify_count if self.attestation else 0
            ),
            rejections=(
                self.attestation.reject_count if self.attestation else 0
            ),
            verification_failures=self.roce.verification_failures,
            retransmissions=retransmissions,
            duplicates_dropped=duplicates,
            dma_bytes=self.dma.bytes_moved,
            queue_pairs=len(self.roce.tables),
            remote_access_refusals=self.remote_access_refusals,
        )


@record
class DeviceStats(Record):
    """Snapshot of one TNIC device's counters."""

    device_id: int
    tx_packets: int
    rx_packets: int
    tx_bytes: int
    rx_bytes: int
    attestations: int
    verifications: int
    rejections: int
    verification_failures: int
    retransmissions: int
    duplicates_dropped: int
    dma_bytes: int
    queue_pairs: int
    remote_access_refusals: int

    def describe(self) -> str:
        return (
            f"device {self.device_id}: "
            f"tx={self.tx_packets}pkt/{self.tx_bytes}B "
            f"rx={self.rx_packets}pkt/{self.rx_bytes}B "
            f"attest={self.attestations} verify={self.verifications} "
            f"reject={self.rejections} "
            f"retx={self.retransmissions} dup={self.duplicates_dropped} "
            f"qps={self.queue_pairs}"
        )
