"""Integration tests: RoCE reliable transport between two TNIC devices."""

from collections import deque

import pytest

from repro.api import Cluster, auth_send
from repro.bench import PACKET_SIZE_SWEEP
from repro.core import TnicDevice
from repro.net import ArpServer, Link, NetworkFault
from repro.net.packet import RdmaOpcode
from repro.roce import QueuePair
from repro.sim import DeterministicRng, Simulator
from repro.telemetry import Telemetry

KEY = b"s" * 32
SESSION = 7


def build_pair(fault=None, trusted=True, rng_seed=0):
    """Two devices on one link with a connected QP each way."""
    sim = Simulator()
    arp = ArpServer()
    a = TnicDevice(sim, 1, "10.0.0.1", "mac-a", arp, trusted=trusted)
    b = TnicDevice(sim, 2, "10.0.0.2", "mac-b", arp, trusted=trusted)
    Link(sim, a.mac, b.mac, fault=fault, rng=DeterministicRng(rng_seed, "link"))
    if trusted:
        a.install_session(SESSION, KEY)
        b.install_session(SESSION, KEY)
    qp_a = QueuePair(qp_number=1, session_id=SESSION,
                     local_ip="10.0.0.1", remote_ip="10.0.0.2")
    qp_b = QueuePair(qp_number=2, session_id=SESSION,
                     local_ip="10.0.0.2", remote_ip="10.0.0.1")
    a.create_qp(qp_a)
    b.create_qp(qp_b)
    a.connect_qp(1, 2)
    b.connect_qp(2, 1)
    return sim, a, b


def test_trusted_send_delivers_verified_payload():
    sim, a, b = build_pair()
    completion = a.send(1, b"hello-tnic")
    sim.run(completion)
    items = b.drain(2)
    assert [i["payload"] for i in items] == [b"hello-tnic"]
    assert items[0]["message"].device_id == 1


def test_untrusted_send_has_no_attestation():
    sim, a, b = build_pair(trusted=False)
    sim.run(a.send(1, b"raw"))
    items = b.drain(2)
    assert items[0]["payload"] == b"raw"
    assert items[0]["message"] is None


def test_fifo_ordering_many_messages():
    sim, a, b = build_pair()
    payloads = [f"msg-{i}".encode() for i in range(20)]
    completions = [a.send(1, p) for p in payloads]
    for completion in completions:
        sim.run(completion)
    sim.run()
    assert [i["payload"] for i in b.drain(2)] == payloads


def test_poll_reports_completions_in_order():
    sim, a, b = build_pair()
    for i in range(3):
        sim.run(a.send(1, f"m{i}".encode()))
    sim.run()
    entries = b.poll(2, max_entries=10)
    assert [e["msn"] for e in entries] == [0, 1, 2]
    assert [e["payload"] for e in entries] == [b"m0", b"m1", b"m2"]
    assert b.poll(2) == []


def test_retransmission_recovers_from_drops():
    """Reliability: 'TNIC guarantees packet retransmission between two
    correct nodes until their successful reception'."""
    fault = NetworkFault(drop_probability=0.3)
    sim, a, b = build_pair(fault=fault, rng_seed=11)
    payloads = [f"msg-{i}".encode() for i in range(10)]
    completions = [a.send(1, p) for p in payloads]
    for completion in completions:
        sim.run(completion)
    sim.run()
    assert [i["payload"] for i in b.drain(2)] == payloads
    assert a.roce.tables.get(1).retransmissions > 0


def test_duplicates_are_not_delivered_twice():
    fault = NetworkFault(duplicate_probability=0.5)
    sim, a, b = build_pair(fault=fault, rng_seed=5)
    payloads = [f"msg-{i}".encode() for i in range(10)]
    for p in payloads:
        sim.run(a.send(1, p))
    sim.run()
    assert [i["payload"] for i in b.drain(2)] == payloads


def test_reordering_preserves_fifo_delivery():
    fault = NetworkFault(reorder_probability=0.4, reorder_extra_delay_us=40.0)
    sim, a, b = build_pair(fault=fault, rng_seed=9)
    payloads = [f"msg-{i}".encode() for i in range(12)]
    completions = [a.send(1, p) for p in payloads]
    for completion in completions:
        sim.run(completion)
    sim.run()
    assert [i["payload"] for i in b.drain(2)] == payloads


def test_tampered_packet_rejected_then_recovered():
    """A tampered payload must never reach the application; the genuine
    retransmission must still be delivered."""
    state = {"hit": False}

    def tamper_once(pkt):
        if pkt.payload and not state["hit"] and pkt.trailer is not None:
            state["hit"] = True
            return pkt.with_payload(b"evil-" + pkt.payload)
        return None

    fault = NetworkFault(tamper=tamper_once)
    sim, a, b = build_pair(fault=fault)
    completion = a.send(1, b"secret")
    sim.run(completion)
    sim.run()
    items = b.drain(2)
    assert [i["payload"] for i in items] == [b"secret"]
    assert b.roce.verification_failures >= 1


def test_replayed_packet_rejected():
    """Replay: a stale but well-formed packet redelivered later must not
    be executed twice (non-equivocation)."""
    fault = NetworkFault(replay_probability=0.5)
    sim, a, b = build_pair(fault=fault, rng_seed=21)
    payloads = [f"msg-{i}".encode() for i in range(8)]
    for p in payloads:
        sim.run(a.send(1, p))
    sim.run()
    assert [i["payload"] for i in b.drain(2)] == payloads


def test_bidirectional_traffic():
    sim, a, b = build_pair()
    ca = a.send(1, b"ping")
    cb = b.send(2, b"pong")
    sim.run(ca)
    sim.run(cb)
    sim.run()
    assert b.drain(2)[0]["payload"] == b"ping"
    assert a.drain(1)[0]["payload"] == b"pong"


def test_send_on_unconnected_qp_fails():
    sim = Simulator()
    arp = ArpServer()
    a = TnicDevice(sim, 1, "10.0.0.1", "mac-a", arp)
    b = TnicDevice(sim, 2, "10.0.0.2", "mac-b", arp)
    Link(sim, a.mac, b.mac)
    a.install_session(SESSION, KEY)
    a.create_qp(QueuePair(qp_number=1, session_id=SESSION,
                          local_ip="10.0.0.1", remote_ip="10.0.0.2"))
    completion = a.send(1, b"x")
    with pytest.raises(Exception, match="not connected"):
        sim.run(completion)


def test_rdma_write_places_payload_in_remote_memory():
    class FakeMemory:
        def __init__(self):
            self.writes = []

        def dma_write(self, address, data, rkey):
            self.writes.append((address, data, rkey))

        def dma_read(self, address, length, rkey):
            return b""

    sim, a, b = build_pair()
    memory = FakeMemory()
    b.attach_host_memory(memory)
    completion = a.send(1, b"written", opcode=RdmaOpcode.WRITE,
                        meta={"remote_addr": 0x1000, "rkey": 7})
    sim.run(completion)
    sim.run()
    b.drain(2)
    assert memory.writes == [(0x1000, b"written", 7)]


def test_local_attest_and_verify():
    sim, a, b = build_pair()

    def run():
        msg = yield a.local_attest(SESSION, b"log-entry")
        ok = yield b.local_verify(SESSION, msg)
        return msg, ok

    msg, ok = sim.run(sim.process(run()))
    assert ok is True
    assert msg.counter == 0


def test_connection_limit_enforced():
    sim = Simulator()
    arp = ArpServer()
    a = TnicDevice(sim, 1, "10.0.0.1", "mac-a", arp)
    a.roce.max_connections = 2
    for qp_num in (1, 2):
        a.create_qp(QueuePair(qp_number=qp_num, session_id=SESSION,
                              local_ip="10.0.0.1", remote_ip="10.0.0.2"))
    with pytest.raises(RuntimeError, match="full"):
        a.create_qp(QueuePair(qp_number=3, session_id=SESSION,
                              local_ip="10.0.0.1", remote_ip="10.0.0.2"))


# ----------------------------------------------------------------------
# The retransmission timer: a deadline that covers the responder's
# verification and restarts on ACK progress
# ----------------------------------------------------------------------
def _closed_loop(cluster, conn, payloads, window):
    """Post *payloads* with *window* outstanding, then drain the loop."""
    pending: deque = deque()
    for payload in payloads:
        if len(pending) == window:
            cluster.run(pending.popleft())
        pending.append(auth_send(conn, payload))
    while pending:
        cluster.run(pending.popleft())
    cluster.run()


@pytest.mark.parametrize("window", [1, 16])
@pytest.mark.parametrize("size", PACKET_SIZE_SWEEP + [10 * 1024, 64 * 1024])
def test_a_loss_free_wire_carries_each_packet_once(size, window):
    """The ACK leaves only after the responder verified the message, so
    it comes later the larger the message: no size may time out on a
    fabric that lost nothing."""
    cluster = Cluster(["a", "b"], seed=0)
    conn_a, conn_b = cluster.connect("a", "b")
    cluster.run()
    devices = [cluster[name].device for name in ("a", "b")]
    before = sum(device.stats().tx_packets for device in devices)
    messages = 20
    _closed_loop(cluster, conn_a,
                 [bytes([index]) * size for index in range(messages)], window)
    stats = [device.stats() for device in devices]
    assert sum(s.retransmissions for s in stats) == 0
    assert sum(s.duplicates_dropped for s in stats) == 0
    segments = -(-size // devices[0].roce.path_mtu)
    assert (sum(s.tx_packets for s in stats) - before
            == messages * (segments + 1))  # the segments and one ACK
    assert len(devices[1].drain(conn_b.qp_number)) == messages


def _transmissions(sim, device):
    """``[(instant, opcode, psn)]`` of every packet *device* sends from
    here on, resends included."""
    sent = []
    transmit = device.mac.transmit

    def recording(packet):
        sent.append((sim.now, packet.bth.opcode, packet.bth.psn))
        transmit(packet)

    device.mac.transmit = recording
    return sent


class _DropNth:
    """Stands in for the link's RNG: drops the packets whose position in
    the link's carry order (both directions) is in *positions*."""

    def __init__(self, positions):
        self.positions = set(positions)
        self.carried = 0

    def chance(self, _probability):
        position = self.carried
        self.carried += 1
        return position in self.positions


def _ack_delay_us(device, payload):
    return device.attestation.hmac_engine.occupancy_us(len(payload) + 8)


def test_on_a_dead_link_every_resend_leaves_one_deadline_after_the_last():
    sim, a, b = build_pair(fault=NetworkFault(drop_probability=1.0))
    a.roce.max_retries = 3
    sent = _transmissions(sim, a)
    payload = b"x" * 3000
    completion = a.send(1, payload)
    with pytest.raises(Exception, match="retry limit exceeded"):
        sim.run(completion)
    rto, allowance = a.roce.retransmit_timeout_us, _ack_delay_us(a, payload)
    instants = [when for when, _, _ in sent]
    assert len(instants) == 4  # the transmission and max_retries resends
    for previous, resend in zip(instants, instants[1:]):
        assert resend == previous + rto + allowance
    # ... and the send fails one deadline after the last of them.
    assert sim.now == instants[-1] + rto + allowance


def test_a_lost_last_segment_is_recovered_by_one_timer_go_back_n():
    """No later packet follows the lost one, so no NAK: only the timer
    can recover it, at the first packet's deadline."""
    sim, a, b = build_pair()
    payload = b"y" * (16 * 1024)  # four segments
    link = a.mac._link
    link.fault.drop_probability = 0.5  # decided by the scripted draws
    link.rng = _DropNth({3})
    sent = _transmissions(sim, a)
    sim.run(a.send(1, payload))
    sim.run()
    assert [item["payload"] for item in b.drain(2)] == [payload]
    state = a.roce.tables.get(1)
    assert state.retransmissions == 4  # exactly one go-back-N
    assert b.roce.tables.get(2).duplicates_dropped == 3
    first = sent[0][0]
    deadline = first + a.roce.retransmit_timeout_us + _ack_delay_us(a, payload)
    assert [(when, psn) for when, _, psn in sent] == (
        [(first, psn) for psn in range(4)]
        + [(deadline, psn) for psn in range(4)])


def test_a_go_back_n_resend_transmits_the_very_packet_first_sent():
    """In-flight packets alias the sender's retransmission buffer: the
    resend is the same immutable record, not a rebuilt copy."""
    sim, a, b = build_pair()
    link = a.mac._link
    link.fault.drop_probability = 0.5  # decided by the scripted draws
    link.rng = _DropNth({0})
    sent = []
    transmit = a.mac.transmit

    def recording(packet):
        sent.append(packet)
        transmit(packet)

    a.mac.transmit = recording
    sim.run(a.send(1, b"resent as is"))
    assert a.roce.tables.get(1).retransmissions == 1
    first, resend = sent
    assert resend is first
    assert [item["payload"] for item in b.drain(2)] == [b"resent as is"]


def _timer_entries(sim, kernel):
    """Instants of *kernel*'s retransmission-timer entries on the heap."""
    return [when for when, _, step, _arg in sim._heap
            if step == kernel._timer_fired]


def test_an_ack_that_makes_progress_restarts_the_timer():
    """32 KiB then 12 KiB: the second message's verification queues
    behind the first's, so its ACK arrives after the deadline its own
    transmission set — but within a timeout of the first message's ACK.
    (Ageing every packet from its first transmission resent it.)"""
    sim, a, b = build_pair()
    first, second = b"a" * (32 * 1024), b"b" * (12 * 1024)
    sent = _transmissions(sim, a)
    first_done = a.send(1, first)
    second_done = a.send(1, second)
    sim.run(first_done)
    state = a.roce.tables.get(1)
    rto = a.roce.retransmit_timeout_us
    progress_at = sim.now
    assert state.progress_at == progress_at
    # An ACK never touches the heap: the entry still stands where the
    # first message's transmission put it ...
    filed = sent[0][0] + rto + _ack_delay_us(a, first)
    assert _timer_entries(sim, a.roce) == [filed]
    second_sent = sent[-1][0]
    assert second_sent + rto + _ack_delay_us(a, second) < filed
    sim.run(second_done)
    # ... and when it came up, before the second ACK, it moved to a
    # timeout after the first ACK's arrival instead of resending.
    assert filed < sim.now
    moved = progress_at + rto + _ack_delay_us(a, second)
    assert _timer_entries(sim, a.roce) == [moved]
    sim.run()  # the entry lapses: nothing is in flight
    assert sim.now == moved and not state.timer_filed
    assert state.retransmissions == 0
    assert b.roce.tables.get(2).duplicates_dropped == 0
    assert len(sent) == 8 + 3  # every segment crossed the wire once


def test_the_retransmission_counter_reaches_telemetry_from_both_paths():
    """NAK-driven and timer-driven resends are one routine: the metric
    equals the state tables' count (it used to miss every NAK resend)."""
    fault = NetworkFault(drop_probability=0.05)
    cluster = Cluster(["a", "b"], fault=fault, seed=3)
    conn_a, conn_b = cluster.connect("a", "b")
    hub = Telemetry.attach(cluster.sim)
    payloads = [bytes([index % 256]) * 1024 for index in range(300)]
    # One outstanding: every loss is a tail loss, which only the timer
    # recovers.  Sixteen: the packet behind a lost one draws a NAK.
    _closed_loop(cluster, conn_a, payloads[:60], window=1)
    _closed_loop(cluster, conn_a, payloads[60:], window=16)
    nodes = [cluster[name] for name in ("a", "b")]
    from_state = sum(state.retransmissions for node in nodes
                     for state in node.device.roce.tables.values())
    from_metric = sum(
        hub.registry.counter("roce.retransmissions", node=node.ip).value
        for node in nodes)
    assert from_state > 0 and from_metric == from_state
    assert "roce_retransmissions" in hub.render_prometheus()
    # Both paths took part.
    assert hub.registry.counter("roce.retransmit_timeouts", node=nodes[0].ip,
                                qp=conn_a.qp_number).value > 0
    receiver = nodes[1].device.roce.tables.get(conn_b.qp_number)
    assert receiver.out_of_order_dropped > 0  # each one sent a NAK
    assert len(nodes[1].device.drain(conn_b.qp_number)) == len(payloads)
