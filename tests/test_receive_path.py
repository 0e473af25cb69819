"""The callback receive pipeline: MAC → request decoder → delivery lane.

``RoceKernel`` used to run its receive side as actors: an ``_rx_loop``
process draining the MAC's receive queue and one ``_delivery_loop``
process per QP draining a lane queue.  Both loops and their queues
(:class:`_Fifo`) survive here as the reference
(:class:`_ReferenceKernel`): under
random drop / duplicate / reorder / tamper schedules the callback lane
must deliver the same messages at the bit-identical instants, ACK them
at the same instants and count the same anomalies.  One class of
schedule is excluded: a packet arriving on the exact instant another
datapath event fires.  The actors saw such a packet one or two wake-ups
later, interleaved with the consequences of the other event; the
handler sees it in its own hop event.  Both orders are legal — FIFO
among same-instant events is a policy (``Simulator.perturb_ties``) —
but they can differ by a NAK and the go-back-N round it starts.

The second half pins the edge cases the generator loop handled
implicitly — what happens around a verification that fails, is refused,
blows up, or is still in flight when more packets arrive.
"""

from collections import deque
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.api import Cluster, auth_send
from repro.api.ops import recv
from repro.core import device as device_module
from repro.core.attestation import AttestationError, AttestedMessage
from repro.net.body import join as join_body
from repro.net.body import materialize
from repro.net.fabric import NetworkFault
from repro.net.packet import RdmaOpcode
from repro.roce.transport import RoceKernel, TransportError
from repro.sim.instrument import span_begin
from repro.sim.events import Event
from repro.telemetry import Telemetry
from repro.telemetry.profiler import _callsite


# ----------------------------------------------------------------------
# The reference: the receive side as the two actors it used to be
# ----------------------------------------------------------------------
class _Fifo:
    """The queue the actors drained: ``put`` wakes the oldest blocked
    getter by a scheduled event, and ``get`` of a queued item returns an
    event that is already processed."""

    def __init__(self, sim):
        self.sim = sim
        self._items = deque()
        self._getters = deque()

    def put(self, item):
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self):
        event = Event(self.sim)
        if self._items:
            event._state = Event.PROCESSED
            event._value = self._items.popleft()
        else:
            self._getters.append(event)
        return event


class _ReferenceLane:
    def __init__(self, state, store):
        self.state = state
        self.store = store
        self.queue = deque()  # always empty; the kernel's _reject clears it
        self.next_arrival_psn = 0
        #: Bumped on rejection: a ``_Fifo`` cannot be emptied, so queued
        #: packets carry the epoch they were accepted in.
        self.epoch = 0
        self.partial = []


class _ReferenceKernel(RoceKernel):
    """``RoceKernel`` with ``_rx_loop``, ``_delivery_loop`` and their
    queues as they were; transmit side, ``_deliver`` and ``_reject``
    are the kernel's own.  The lane replaces the QP record's callback
    lane at the QP's first packet, when the actors used to start."""

    def __init__(self, sim, mac, *args, **kwargs):
        super().__init__(sim, mac, *args, **kwargs)
        self.rx_queue = _Fifo(sim)
        mac.ingress = self.rx_queue.put
        sim.process(self._rx_loop())

    def _reject(self, lane):
        lane.epoch += 1
        super()._reject(lane)

    def _rx_loop(self):
        while True:
            packet = yield self.rx_queue.get()
            if packet.ip.dst_ip != self.ip:
                continue
            if packet.bth.opcode in (RdmaOpcode.ACK, RdmaOpcode.NAK):
                self._handle_ack(packet)
            else:
                self._handle_data(packet)

    def _handle_data(self, packet):
        state = self.tables.get(packet.bth.dest_qp)
        if state is None:
            return
        psn = packet.bth.psn
        lane = state.rx_lane
        if not isinstance(lane, _ReferenceLane):
            lane = state.rx_lane = _ReferenceLane(state, _Fifo(self.sim))
            self.sim.process(self._delivery_loop(lane))
        if psn < lane.next_arrival_psn:
            state.duplicates_dropped += 1
            if state.expected_recv_psn > 0:
                self._send_ack(state, state.expected_recv_psn - 1,
                               state.next_recv_msn)
            return
        if psn > lane.next_arrival_psn:
            state.out_of_order_dropped += 1
            self._send_nak(state)
            return
        lane.next_arrival_psn += 1
        lane.store.put((lane.epoch, packet))

    def _verify_event(self, session_id, message):
        """The kernel's verification as the event the loop waited on:
        the payload, or the :class:`AttestationError` as its failure."""
        check = Event(self.sim)

        def settled(payload, error):
            if error is None:
                check.succeed(payload)
            else:
                check.fail(error)

        self.attestation.verify_event(session_id, message, settled)
        return check

    def _delivery_loop(self, lane):
        qp = lane.state.qp
        while True:
            epoch, packet = yield lane.store.get()
            if epoch != lane.epoch:
                continue
            segments = packet.bth.segments
            if segments > 1:
                seg_index = packet.bth.seg_index
                if seg_index != len(lane.partial):
                    self._reject(lane)
                    continue
                lane.partial.append(packet.payload)
                if seg_index < segments - 1:
                    continue
                payload = join_body(lane.partial)
                lane.partial = []
            else:
                if lane.partial:
                    self._reject(lane)
                    continue
                payload = materialize(packet.payload)
            if self.attestation is None:
                self._deliver(lane, packet, payload, psn_span=segments)
                continue
            if packet.trailer is None:
                self.verification_failures += 1
                self._reject(lane)
                continue
            trailer = packet.trailer
            message = AttestedMessage(
                payload=payload, alpha=trailer.alpha,
                session_id=trailer.session_id, device_id=trailer.device_id,
                counter=trailer.send_cnt)
            vspan = span_begin(self.sim, "roce.rx_verify",
                               parent=packet.span,
                               node=self.ip, qp=qp.qp_number)
            try:
                verified = yield self._verify_event(qp.session_id, message)
            except AttestationError:
                self._verification_failed(lane, vspan)
                continue
            vspan.end(status="ok")
            self._deliver(lane, packet, verified, message=message,
                          psn_span=segments)


# ----------------------------------------------------------------------
# Differential: random fault schedules
# ----------------------------------------------------------------------
class _Tamperer:
    """Corrupts the chosen data packets, counted in carry order.

    ``"payload"`` flips a byte (the MAC check fails), ``"strip"``
    forges the payload and removes the attestation trailer,
    ``"segment"`` breaks the segment sequence, ``"single"`` makes a
    later segment pose as a single-packet message in the middle of its
    own reassembly."""

    def __init__(self, actions):
        self.actions = actions
        self.seen = 0

    def __call__(self, packet):
        if packet.bth.opcode in (RdmaOpcode.ACK, RdmaOpcode.NAK):
            return None
        action = self.actions.get(self.seen)
        self.seen += 1
        if action == "payload":
            body = bytearray(bytes(packet.payload))
            body[0] ^= 0xFF
            return packet.with_payload(bytes(body))
        if action == "strip" and packet.trailer is not None:
            return replace(packet, trailer=None,
                           payload=b"evil" * (len(packet.payload) // 4))
        bth = packet.bth
        if action == "segment" and bth.segments > 1:
            return replace(packet, bth=replace(bth, seg_index=bth.seg_index + 1))
        if action == "single" and bth.seg_index > 0:
            return replace(packet, bth=replace(bth, segments=1, seg_index=0))
        return None


class _Ties:
    """Stands in for ``sim.profiler``: the instants at which a packet
    arrival shares the clock with another datapath event.  (The send
    completion is triggered by the ACK's arrival, so it always does.)"""

    def __init__(self):
        self.arrivals: set[float] = set()
        self.others: set[float] = set()

    def clock(self):
        return 0

    def account(self, _kind, step, when, _elapsed):
        site = _callsite(step)
        if site == "EthernetMac.deliver":
            self.arrivals.add(when)
        elif site not in ("_Send._acked", "<idle>"):
            self.others.add(when)

    def found(self):
        return self.arrivals & self.others


def _run_schedule(kernel_class, monkeypatch, sizes, seed, drop, duplicate,
                  reorder, actions):
    monkeypatch.setattr(device_module, "RoceKernel", kernel_class)
    fault = NetworkFault(
        drop_probability=drop, duplicate_probability=duplicate,
        reorder_probability=reorder, tamper=_Tamperer(actions))
    cluster = Cluster(["a", "b"], fault=fault, seed=seed)
    conn_a, conn_b = cluster.connect("a", "b")
    sim = cluster.sim
    ties = sim.profiler = _Ties()
    delivered, acked = [], []
    cluster["b"].device.set_receive_callback(
        conn_b.qp_number,
        lambda item: delivered.append((sim.now, item["payload"])))
    payloads = [index.to_bytes(2, "big") * (size // 2)
                for index, size in enumerate(sizes)]
    for index, payload in enumerate(payloads):
        auth_send(conn_a, payload).callbacks.append(
            lambda event, index=index: acked.append(
                (sim.now, index, type(event._exception))))
    cluster.run()
    receiver = cluster["b"].device.roce
    state = receiver.tables.get(conn_b.qp_number)
    sender = cluster["a"].device.roce.tables.get(conn_a.qp_number)
    return {
        "delivered": delivered,
        "acked": acked,
        "duplicates_dropped": state.duplicates_dropped,
        "out_of_order_dropped": state.out_of_order_dropped,
        "verification_failures": receiver.verification_failures,
        "retransmissions": sender.retransmissions,
        "finished_at": sim.now,
        "link": vars(cluster.fabric.stats),
    }, payloads, ties.found()


_probability = st.sampled_from([0.0, 0.0, 0.05, 0.2])
# One packet, exactly one MTU, two and five segments (path MTU 4096).
_sizes = st.lists(st.sampled_from([64, 1024, 4096, 6000, 16384 + 64]),
                  min_size=1, max_size=10)
_actions = st.dictionaries(
    st.integers(min_value=0, max_value=30),
    st.sampled_from(["payload", "strip", "segment", "single"]), max_size=4)


@settings(max_examples=60, deadline=None)
@given(_sizes, st.integers(0, 2**16), _probability, _probability,
       _probability, _actions)
def test_callback_lane_matches_the_actor_loops(
        sizes, seed, drop, duplicate, reorder, actions):
    with pytest.MonkeyPatch.context() as monkeypatch:
        observed, payloads, ties = _run_schedule(
            RoceKernel, monkeypatch, sizes, seed, drop, duplicate, reorder,
            actions)
    assume(not ties)
    with pytest.MonkeyPatch.context() as monkeypatch:
        expected, _, _ = _run_schedule(
            _ReferenceKernel, monkeypatch, sizes, seed, drop, duplicate,
            reorder, actions)
    assert observed == expected  # bit-equal instants, equal counters
    # ... and the run means something: exactly once, in order, unless
    # the transport gave up (then a prefix, and the sender was told).
    got = [payload for _, payload in observed["delivered"]]
    assert got == payloads[:len(got)]
    gave_up = [index for _, index, error in observed["acked"]
               if error is TransportError]
    assert len(got) == len(payloads) or gave_up


# ----------------------------------------------------------------------
# Pinned edge cases of the lane state machine
# ----------------------------------------------------------------------
def _pair(fault=None):
    cluster = Cluster(["a", "b"], fault=fault, seed=0)
    conn_a, conn_b = cluster.connect("a", "b")
    return cluster, conn_a, conn_b


def _drain(conn):
    return [item["payload"] for item in iter(lambda: recv(conn), None)]


def _lane(conn):
    return conn.node.device.roce.tables[conn.qp_number].rx_lane


def test_failed_verification_discards_the_packets_queued_behind_it():
    # Three messages arrive inside the first one's 7 µs verification; it
    # fails, and the two queued behind it must go with it: checked, they
    # would fail continuity (counters 1 and 2 against an expected 0).
    cluster, conn_a, conn_b = _pair(
        NetworkFault(tamper=_Tamperer({0: "payload"})))
    payloads = [bytes([index]) * 64 for index in range(3)]
    for payload in payloads:
        auth_send(conn_a, payload)
    cluster.run()
    receiver = conn_b.node.device
    assert receiver.roce.verification_failures == 1
    assert receiver.stats().rejections == 1
    assert _lane(conn_b).verifying is None and not _lane(conn_b).queue
    # Go-back-N re-supplied all three; each was delivered exactly once.
    sender = conn_a.node.device.roce.tables.get(conn_a.qp_number)
    assert sender.retransmissions >= 3
    assert _drain(conn_b) == payloads
    assert receiver.stats().verifications == 3


def test_a_trusted_device_rejects_a_message_whose_trailer_was_stripped():
    # The first attempt crosses the wire with a forged payload and no
    # attestation trailer.  A device with an attestation kernel accepts
    # only attested messages: rejected like a bad MAC (counted, NAKed,
    # window not advanced), and go-back-N re-supplies the genuine one.
    cluster, conn_a, conn_b = _pair(
        NetworkFault(tamper=_Tamperer({0: "strip"})))
    payload = b"genuine " * 8
    cluster.run(auth_send(conn_a, payload))
    cluster.run()
    receiver = conn_b.node.device
    assert receiver.roce.verification_failures == 1
    assert _drain(conn_b) == [payload]
    # The forgery never reached the kernel; the genuine resend did.
    assert receiver.stats().verifications == 1
    assert receiver.stats().rejections == 0


def test_an_untrusted_device_still_delivers_raw_bytes():
    # The RDMA-hw baseline has no attestation kernel: nothing rides a
    # trailer, and whatever arrives in order is delivered.
    cluster = Cluster(["a", "b"], trusted=False, seed=0)
    conn_a, conn_b = cluster.connect("a", "b")
    cluster.run(auth_send(conn_a, b"raw" * 20))
    assert _drain(conn_b) == [b"raw" * 20]
    assert conn_b.node.device.roce.verification_failures == 0


def test_single_packet_message_in_the_middle_of_a_reassembly_rewinds():
    cluster, conn_a, conn_b = _pair(
        NetworkFault(tamper=_Tamperer({1: "single"})))
    rewinds = []
    reject = conn_b.node.device.roce._reject
    conn_b.node.device.roce._reject = lambda lane: (
        rewinds.append(list(lane.partial)), reject(lane))
    payload = bytes(range(256)) * 40  # three segments
    cluster.run(auth_send(conn_a, payload))
    cluster.run()
    # Rejected with the first segment in hand, before any check ran.
    assert [len(partial) for partial in rewinds] == [1]
    assert _lane(conn_b).partial == []
    assert conn_b.node.device.roce.verification_failures == 0
    assert conn_b.node.device.stats().rejections == 0
    assert _drain(conn_b) == [payload]


def test_unknown_session_at_the_receiver_never_delivers_and_never_wedges():
    cluster = Cluster(["a", "b"], seed=0)
    node_a, node_b = cluster["a"], cluster["b"]
    node_a.device.install_session(55, b"k" * 32)  # the receiver has no key
    conn_a = node_a.ibv_qp_conn(node_b.ip, session_id=55)
    conn_b = node_b.ibv_qp_conn(node_a.ip, session_id=55)
    node_a.device.connect_qp(conn_a.qp_number, conn_b.qp_number)
    node_b.device.connect_qp(conn_b.qp_number, conn_a.qp_number)
    done = node_a.device.send(conn_a.qp_number, b"x" * 64)
    cluster.run()  # refused on arrival, NAKed, re-sent ... until the limit
    with pytest.raises(TransportError, match="retry limit exceeded"):
        done.value
    receiver = node_b.device.roce
    assert receiver.verification_failures >= 1
    assert _lane(conn_b).verifying is None and not _lane(conn_b).queue
    assert node_b.device.receive(conn_b.qp_number) is None
    assert node_b.device.stats().verifications == 0


def test_an_error_that_is_no_attestation_error_surfaces_and_delivers_nothing(
        monkeypatch):
    cluster, conn_a, conn_b = _pair()
    kernel = conn_b.node.device.attestation

    def broken(session_id, message):
        raise RuntimeError("keystore on fire")

    monkeypatch.setattr(kernel, "verify", broken)
    auth_send(conn_a, b"x" * 64)
    with pytest.raises(RuntimeError, match="keystore on fire"):
        cluster.run()
    # Fail closed: the message stays undelivered and unacknowledged.
    assert recv(conn_b) is None
    assert conn_b.node.device.roce.tables.get(
        conn_b.qp_number).expected_recv_psn == 0


def test_segments_arriving_during_a_verification_wait_their_turn():
    cluster, conn_a, conn_b = _pair()
    hub = Telemetry.attach(cluster.sim)
    # 16 KiB is ~340 µs in the receiver's HMAC pipeline; the 6000 B
    # message behind it is attested in ~130 µs, so both its segments
    # arrive while the first check is still in flight.
    first, second = bytes(range(256)) * 64, b"s" * 6000
    backlog = []
    mac = conn_b.node.device.mac
    ingress = mac.ingress

    def tap(packet):
        if _lane(conn_b).verifying is not None:
            backlog.append(len(_lane(conn_b).queue))
        ingress(packet)

    mac.ingress = tap
    auth_send(conn_a, first)
    auth_send(conn_a, second)
    cluster.run()
    assert _drain(conn_b) == [first, second]
    assert backlog[:2] == [0, 1]  # the two segments, queued behind the check
    # ... and taken up the instant it left the pipeline: reassembled,
    # the second check starts where the first one ends.
    checks = sorted(hub.spans.spans("roce.rx_verify"),
                    key=lambda span: span.start_us)
    assert checks[1].start_us == checks[0].end_us
