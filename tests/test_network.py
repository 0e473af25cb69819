"""Unit tests for the network substrate (packets, ARP, MAC, fabric)."""

import pytest

from repro.net import (
    ArpServer,
    AttestationTrailer,
    EthernetHeader,
    EthernetMac,
    Fabric,
    IbTransportHeader,
    Ipv4Header,
    Link,
    NetworkFault,
    Packet,
    RdmaOpcode,
    UdpHeader,
)
from repro.net.arp import ArpError
from repro.sim import DeterministicRng, Simulator


def make_packet(src="m-a", dst="m-b", payload=b"hello", trailer=None):
    return Packet(
        eth=EthernetHeader(src_mac=src, dst_mac=dst),
        ip=Ipv4Header(src_ip="10.0.0.1", dst_ip="10.0.0.2"),
        udp=UdpHeader(src_port=4791),
        bth=IbTransportHeader(opcode=RdmaOpcode.SEND, dest_qp=1, psn=0),
        payload=payload,
        trailer=trailer,
    )


def test_packet_wire_size_accounts_for_headers():
    pkt = make_packet(payload=b"x" * 100)
    assert pkt.wire_size() == 18 + 20 + 8 + 12 + 100


def test_packet_wire_size_with_trailer():
    trailer = AttestationTrailer(alpha=b"a" * 64, session_id=1, device_id=2, send_cnt=0)
    pkt = make_packet(trailer=trailer)
    assert pkt.wire_size() == make_packet().wire_size() + 64 + 16


def test_trailer_rejects_negative_counter():
    with pytest.raises(ValueError):
        AttestationTrailer(alpha=b"", session_id=1, device_id=1, send_cnt=-1)


def test_packet_tamper_helpers():
    pkt = make_packet()
    evil = pkt.with_payload(b"evil")
    assert evil.payload == b"evil"
    assert evil.bth == pkt.bth
    assert "send" in pkt.describe()


def test_arp_register_lookup():
    arp = ArpServer()
    arp.register("10.0.0.1", "mac-1")
    assert arp.lookup("10.0.0.1") == "mac-1"
    assert "10.0.0.1" in arp
    assert len(arp) == 1
    with pytest.raises(ArpError):
        arp.lookup("10.0.0.9")
    with pytest.raises(ValueError):
        arp.register("", "mac")


def test_link_delivers_packets_with_propagation():
    sim = Simulator()
    a = EthernetMac(sim, "m-a")
    b = EthernetMac(sim, "m-b")
    Link(sim, a, b, propagation_us=2.0)
    pkt = make_packet()
    a.transmit(pkt)
    sim.run()
    assert len(b.rx_queue) == 1
    assert b.rx_packets == 1
    assert a.tx_packets == 1
    # wire serialisation + 2us propagation
    assert sim.now == pytest.approx(2.0 + pkt.wire_size() / 12500.0)


def test_mac_requires_attachment():
    sim = Simulator()
    solo = EthernetMac(sim, "m-x")
    with pytest.raises(RuntimeError):
        solo.transmit(make_packet())


def test_mac_serialises_back_to_back_transmissions():
    sim = Simulator()
    a = EthernetMac(sim, "m-a", bandwidth_bytes_per_us=100.0)
    b = EthernetMac(sim, "m-b")
    Link(sim, a, b, propagation_us=0.0)
    arrivals = []
    b.ingress = lambda pkt: arrivals.append(sim.now)
    pkt = make_packet(payload=b"x" * 82)  # 140B wire -> 1.4us each
    a.transmit(pkt)
    a.transmit(pkt)
    sim.run()
    assert arrivals[1] - arrivals[0] == pytest.approx(1.4)


def test_link_drop_fault():
    sim = Simulator()
    a = EthernetMac(sim, "m-a")
    b = EthernetMac(sim, "m-b")
    link = Link(sim, a, b, fault=NetworkFault(drop_probability=1.0))
    a.transmit(make_packet())
    sim.run()
    assert len(b.rx_queue) == 0
    assert link.stats.dropped == 1


def test_link_duplicate_fault():
    sim = Simulator()
    a = EthernetMac(sim, "m-a")
    b = EthernetMac(sim, "m-b")
    link = Link(sim, a, b, fault=NetworkFault(duplicate_probability=1.0))
    a.transmit(make_packet())
    sim.run()
    assert len(b.rx_queue) == 2
    assert link.stats.duplicated == 1


def test_link_tamper_fault():
    sim = Simulator()
    a = EthernetMac(sim, "m-a")
    b = EthernetMac(sim, "m-b")
    link = Link(
        sim, a, b, fault=NetworkFault(tamper=lambda p: p.with_payload(b"evil"))
    )
    a.transmit(make_packet())
    sim.run()
    assert b.rx_queue.popleft().payload == b"evil"
    assert link.stats.tampered == 1


def test_fault_validation():
    with pytest.raises(ValueError):
        NetworkFault(drop_probability=1.5).validate()


def test_fabric_switches_by_destination_mac():
    sim = Simulator()
    fabric = Fabric(sim)
    macs = {name: EthernetMac(sim, name) for name in ("m-a", "m-b", "m-c")}
    for mac in macs.values():
        fabric.register(mac)
    macs["m-a"].transmit(make_packet(dst="m-c"))
    sim.run()
    assert len(macs["m-c"].rx_queue) == 1
    assert len(macs["m-b"].rx_queue) == 0
    assert fabric.addresses() == ["m-a", "m-b", "m-c"]


def test_fabric_rejects_duplicate_mac():
    sim = Simulator()
    fabric = Fabric(sim)
    fabric.register(EthernetMac(sim, "m-a"))
    with pytest.raises(ValueError):
        fabric.register(EthernetMac(sim, "m-a"))


def test_fabric_drops_unknown_destination():
    sim = Simulator()
    fabric = Fabric(sim)
    a = EthernetMac(sim, "m-a")
    fabric.register(a)
    a.transmit(make_packet(dst="nowhere"))
    sim.run()
    assert fabric.stats.dropped == 1


def test_link_reorder_fault_delays_packet():
    sim = Simulator()
    rng = DeterministicRng(3, "t")
    a = EthernetMac(sim, "m-a")
    b = EthernetMac(sim, "m-b")
    link = Link(
        sim, a, b,
        fault=NetworkFault(reorder_probability=1.0, reorder_extra_delay_us=50.0),
        rng=rng,
    )
    a.transmit(make_packet())
    sim.run()
    assert link.stats.reordered == 1
    assert sim.now > 50.0


def test_fabric_applies_duplicate_and_replay_faults():
    # Fabric.carry used to implement tamper, drop and reorder only: a
    # switched cluster asked for duplicates or replays and got none.
    sim = Simulator()
    fabric = Fabric(sim, fault=NetworkFault(duplicate_probability=1.0,
                                            replay_probability=1.0))
    a, b = EthernetMac(sim, "m-a"), EthernetMac(sim, "m-b")
    fabric.register(a)
    fabric.register(b)
    a.transmit(make_packet())
    sim.run()
    assert fabric.stats.duplicated == 1 and fabric.stats.replayed == 1
    assert fabric.stats.delivered == 3 and len(b.rx_queue) == 3


def test_link_and_fabric_apply_one_fault_schedule():
    # Same policy, same seed, same traffic: the two wires differ only in
    # how they find the receiver.
    def run(wire_up):
        sim = Simulator()
        a, b = EthernetMac(sim, "m-a"), EthernetMac(sim, "m-b")
        fault = NetworkFault(
            drop_probability=0.2, duplicate_probability=0.2,
            reorder_probability=0.2, replay_probability=0.2,
            tamper=lambda p: p.with_payload(b"evil") if p.bth.psn % 7 == 0 else None)
        wire = wire_up(sim, a, b, fault, DeterministicRng(11, "wire"))
        arrivals = []
        b.ingress = lambda packet: arrivals.append(
            (sim.now, packet.bth.psn, packet.payload))
        for psn in range(200):
            a.transmit(Packet(
                eth=EthernetHeader(src_mac="m-a", dst_mac="m-b"),
                ip=Ipv4Header(src_ip="10.0.0.1", dst_ip="10.0.0.2"),
                udp=UdpHeader(src_port=4791),
                bth=IbTransportHeader(opcode=RdmaOpcode.SEND, dest_qp=1, psn=psn),
                payload=b"x" * 100))
        sim.run()
        return arrivals, wire.stats

    def switched(sim, a, b, fault, rng):
        fabric = Fabric(sim, fault=fault, rng=rng)
        fabric.register(a)
        fabric.register(b)
        return fabric

    on_link = run(lambda sim, a, b, fault, rng: Link(sim, a, b, fault=fault, rng=rng))
    on_fabric = run(switched)
    assert on_link == on_fabric
    stats = on_link[1]
    assert min(stats.dropped, stats.duplicated, stats.reordered,
               stats.replayed, stats.tampered) > 0
