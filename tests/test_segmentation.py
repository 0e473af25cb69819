"""Tests for RoCE MTU segmentation and reassembly (SEND First/Middle/Last)."""

import pytest

from repro.core import TnicDevice
from repro.net import ArpServer, Link, NetworkFault
from repro.roce import QueuePair
from repro.sim import DeterministicRng, Simulator

KEY = b"segmentation-key-0123456789abcd!"
SESSION = 4


def build_pair(fault=None, trusted=True, mtu=1024, rng_seed=0):
    sim = Simulator()
    arp = ArpServer()
    a = TnicDevice(sim, 1, "10.0.0.1", "mac-a", arp, trusted=trusted)
    b = TnicDevice(sim, 2, "10.0.0.2", "mac-b", arp, trusted=trusted)
    a.roce.path_mtu = mtu
    b.roce.path_mtu = mtu
    Link(sim, a.mac, b.mac, fault=fault, rng=DeterministicRng(rng_seed, "l"))
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


def test_large_message_segmented_and_reassembled():
    sim, a, b = build_pair(mtu=1024)
    payload = bytes(range(256)) * 20  # 5120 B -> 5 segments + 1 partial? 5x1024
    completion = a.send(1, payload)
    sim.run(completion)
    sim.run()
    items = b.drain(2)
    assert len(items) == 1
    assert items[0]["payload"] == payload
    # Sender consumed one PSN per segment.
    assert a.roce.tables.get(1).next_send_psn == 5


def test_exact_mtu_not_segmented():
    sim, a, b = build_pair(mtu=1024)
    completion = a.send(1, b"x" * 1024)
    sim.run(completion)
    sim.run()
    assert a.roce.tables.get(1).next_send_psn == 1
    assert b.drain(2)[0]["payload"] == b"x" * 1024


def test_attestation_covers_whole_reassembled_message():
    sim, a, b = build_pair(mtu=512)
    payload = b"A" * 2000
    sim.run(a.send(1, payload))
    sim.run()
    item = b.drain(2)[0]
    assert item["message"].payload == payload
    assert item["message"].counter == 0


def test_mixed_sizes_preserve_fifo():
    sim, a, b = build_pair(mtu=512)
    payloads = [b"s" * 64, b"L" * 2000, b"m" * 512, b"X" * 1500]
    for payload in payloads:
        sim.run(a.send(1, payload))
    sim.run()
    assert [i["payload"] for i in b.drain(2)] == payloads


def test_tampered_middle_segment_recovered():
    """Corrupting one middle segment invalidates the whole message;
    go-back-N re-supplies it and the genuine content is delivered."""
    state = {"count": 0}

    def tamper_second_data_packet(pkt):
        if pkt.payload and pkt.bth.segments > 1:
            state["count"] += 1
            if state["count"] == 2:  # the first MIDDLE segment
                return pkt.with_payload(b"\xff" * len(pkt.payload))
        return None

    fault = NetworkFault(tamper=tamper_second_data_packet)
    sim, a, b = build_pair(fault=fault, mtu=512)
    payload = b"B" * 1600
    completion = a.send(1, payload)
    sim.run(completion)
    sim.run()
    items = b.drain(2)
    assert [i["payload"] for i in items] == [payload]
    assert b.roce.verification_failures >= 1


def test_segmented_transfer_survives_drops():
    fault = NetworkFault(drop_probability=0.25)
    sim, a, b = build_pair(fault=fault, mtu=512, rng_seed=17)
    payloads = [b"D" * 1800, b"E" * 900, b"F" * 3000]
    for payload in payloads:
        sim.run(a.send(1, payload))
    sim.run()
    assert [i["payload"] for i in b.drain(2)] == payloads


def test_untrusted_segmentation():
    sim, a, b = build_pair(trusted=False, mtu=256)
    payload = b"u" * 1000
    sim.run(a.send(1, payload))
    sim.run()
    item = b.drain(2)[0]
    assert item["payload"] == payload
    assert item["message"] is None


def test_mtu_validation():
    from repro.roce.transport import RoceKernel
    from repro.net.mac import EthernetMac

    sim = Simulator()
    with pytest.raises(ValueError, match="MTU"):
        RoceKernel(sim, EthernetMac(sim, "m"), ArpServer(), "10.0.0.1",
                   path_mtu=100)


def test_bidirectional_segmented_traffic():
    sim, a, b = build_pair(mtu=512)
    ca = a.send(1, b"p" * 1500)
    cb = b.send(2, b"q" * 2500)
    sim.run(ca)
    sim.run(cb)
    sim.run()
    assert b.drain(2)[0]["payload"] == b"p" * 1500
    assert a.drain(1)[0]["payload"] == b"q" * 2500
