"""Edge-case tests for the device datapath, DMA and transport limits,
and the FPGA resource model."""

import pytest

from repro.core import TnicDevice
from repro.core.device import ReadTimeout
from repro.core.dma import DmaEngine
from repro.core.resources import FpgaModel, ResourceUsage, U280
from repro.net import ArpServer, Link, NetworkFault
from repro.roce import QueuePair
from repro.roce.transport import TransportError
from repro.sim import Simulator
from repro.sim.latency import TNIC_ASYNC_FIXED_US, TNIC_PCIE_TRANSFER_US
from repro.tee.providers import TnicProvider

KEY = b"edge-case-key-0123456789abcdef!!"
SESSION = 3


def test_dma_sync_vs_async_setup_cost():
    # A zero-byte transfer takes exactly the DMA engine's set-up: the
    # asynchronous path's, well under the synchronous 16 us transfer.
    sim = Simulator()
    done = []
    DmaEngine(sim).transfer(0, done.append, "moved")
    sim.run()
    assert done == ["moved"]
    assert sim.now < TNIC_PCIE_TRANSFER_US
    # The async set-up is the async attest's fixed term: one constant,
    # still the 0.5 us doorbell + descriptor fetch.
    provider = TnicProvider(sim, 1)
    assert sim.now == provider._fixed_us == TNIC_ASYNC_FIXED_US == 0.5


def test_dma_transfer_charges_time_and_counts_bytes():
    sim = Simulator()
    dma = DmaEngine(sim)
    done = []
    dma.transfer(48_000, done.append, 48_000)  # 4us at 12000 B/us + setup
    sim.run()
    assert done == [48_000] and sim.now > 4.0
    assert dma.bytes_moved == 48_000
    assert dma.transfers == 1


def test_dma_negative_size_rejected():
    with pytest.raises(ValueError):
        DmaEngine(Simulator()).transfer(-1, print, None)


def test_untrusted_device_rejects_trusted_operations():
    sim = Simulator()
    device = TnicDevice(sim, 1, "10.0.0.1", "m-a", ArpServer(), trusted=False)
    with pytest.raises(RuntimeError, match="untrusted"):
        device.install_session(1, KEY)
    with pytest.raises(RuntimeError, match="untrusted"):
        device.local_attest(1, b"x")


def _sender_on_dead_link(max_retries):
    """Device ``a`` with QP 1 connected over a link that drops everything."""
    sim = Simulator()
    arp = ArpServer()
    a = TnicDevice(sim, 1, "10.0.0.1", "m-a", arp)
    b = TnicDevice(sim, 2, "10.0.0.2", "m-b", arp)
    Link(sim, a.mac, b.mac, fault=NetworkFault(drop_probability=1.0))
    a.install_session(SESSION, KEY)
    b.install_session(SESSION, KEY)
    a.roce.max_retries = max_retries
    a.roce.retransmit_timeout_us = 50.0
    qp = QueuePair(qp_number=1, session_id=SESSION,
                   local_ip="10.0.0.1", remote_ip="10.0.0.2")
    a.create_qp(qp)
    a.connect_qp(1, 2)
    return sim, a


def test_transport_gives_up_after_retry_limit():
    """A fully dead link eventually fails the send completion."""
    sim, a = _sender_on_dead_link(max_retries=3)
    completion = a.send(1, b"into the void")
    with pytest.raises(TransportError, match="retry limit"):
        sim.run(completion)
    assert a.roce.tables.get(1).retransmissions >= 3


def test_retry_limit_fails_every_message_in_post_order():
    """A multi-segment message and the one queued behind it both fail,
    oldest first, and nothing is left waiting for an ACK."""
    sim, a = _sender_on_dead_link(max_retries=2)
    failed = []
    completions = [a.send(1, b"x" * (2 * a.roce.path_mtu + 1)),
                   a.send(1, b"short")]
    for index, completion in enumerate(completions):
        completion.callbacks.append(lambda _event, index=index:
                                    failed.append(index))
    for completion in completions:
        with pytest.raises(TransportError, match="retry limit"):
            sim.run(completion)
    assert failed == [0, 1]
    assert not a.roce.tables.get(1).inflight


def test_retry_limit_fails_a_whole_message_one_deadline_after_its_last_resend():
    """Retry exhaustion drops every segment of the message at once — not
    one PSN per timeout — and the message queued behind it, resent in
    the same rounds, fails at that instant too."""
    sim, a = _sender_on_dead_link(max_retries=2)
    resent_at = []
    transmit = a.mac.transmit
    a.mac.transmit = lambda packet: (resent_at.append(sim.now),
                                     transmit(packet))
    payload = b"x" * (2 * a.roce.path_mtu + 1)  # three segments
    failed_at = []
    for completion in (a.send(1, payload), a.send(1, b"short")):
        completion.callbacks.append(lambda _event: failed_at.append(sim.now))
    sim.run()
    assert len(resent_at) == (3 + 1) * (1 + 2)  # sent once, resent twice
    allowance = a.attestation.hmac_engine.occupancy_us(len(payload) + 8)
    deadline = resent_at[-1] + a.roce.retransmit_timeout_us + allowance
    assert failed_at == [deadline, deadline]
    assert sim.now == deadline and not a.roce.tables.get(1).inflight


def test_read_remote_without_host_memory_times_out():
    """READ against a target with no registered memory gets no response;
    the composed deadline fails the completion instead of parking the
    requester forever (LIV005)."""
    sim = Simulator()
    arp = ArpServer()
    a = TnicDevice(sim, 1, "10.0.0.1", "m-a", arp)
    b = TnicDevice(sim, 2, "10.0.0.2", "m-b", arp)
    Link(sim, a.mac, b.mac)
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
    result = a.read_remote(1, 0x1000, 8)
    sim.run(until=10_000.0)
    assert not result.triggered  # still pending inside the deadline
    with pytest.raises(ReadTimeout, match="no response"):
        sim.run(result)
    assert not a._pending_reads  # the expiry cleaned up the pending map


def test_duplicate_qp_rejected():
    sim = Simulator()
    device = TnicDevice(sim, 1, "10.0.0.1", "m-a", ArpServer())
    qp = QueuePair(qp_number=1, session_id=SESSION,
                   local_ip="10.0.0.1", remote_ip="10.0.0.2")
    device.create_qp(qp)
    with pytest.raises(ValueError, match="already created"):
        device.create_qp(qp)


def test_queue_pair_validation():
    with pytest.raises(ValueError):
        QueuePair(qp_number=-1, session_id=1,
                  local_ip="10.0.0.1", remote_ip="10.0.0.2")
    with pytest.raises(ValueError):
        QueuePair(qp_number=1, session_id=-1,
                  local_ip="10.0.0.1", remote_ip="10.0.0.2")
    with pytest.raises(ValueError):
        QueuePair(qp_number=1, session_id=1,
                  local_ip="10.0.0.1", remote_ip="10.0.0.1")


def test_connect_qp_rejects_a_negative_peer_qp_number():
    sim = Simulator()
    device = TnicDevice(sim, 1, "10.0.0.1", "m-a", ArpServer())
    device.create_qp(QueuePair(qp_number=1, session_id=1,
                               local_ip="10.0.0.1", remote_ip="10.0.0.2"))
    with pytest.raises(ValueError, match="remote_qp_number"):
        device.connect_qp(1, -2)
    assert device.roce.tables[1].remote_qp_number == -1
    device.connect_qp(1, 5)
    assert device.roce.tables[1].remote_qp_number == 5


def test_poll_respects_max_entries():
    sim = Simulator()
    arp = ArpServer()
    a = TnicDevice(sim, 1, "10.0.0.1", "m-a", arp)
    b = TnicDevice(sim, 2, "10.0.0.2", "m-b", arp)
    Link(sim, a.mac, b.mac)
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
    for i in range(5):
        sim.run(a.send(1, f"m{i}".encode()))
    sim.run()
    first = b.poll(2, max_entries=2)
    rest = b.poll(2, max_entries=10)
    assert len(first) == 2
    assert len(rest) == 3


def test_device_stats_snapshot():
    sim, a, b = None, None, None
    sim = Simulator()
    arp = ArpServer()
    a = TnicDevice(sim, 1, "10.0.0.1", "m-a", arp)
    b = TnicDevice(sim, 2, "10.0.0.2", "m-b", arp)
    Link(sim, a.mac, b.mac)
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
    for i in range(3):
        sim.run(a.send(1, f"m{i}".encode()))
    sim.run()
    b.drain(2)
    stats_a = a.stats()
    stats_b = b.stats()
    assert stats_a.attestations == 3
    assert stats_b.verifications == 3
    assert stats_b.rejections == 0
    assert stats_a.tx_packets >= 3
    assert stats_a.queue_pairs == 1
    assert stats_a.dma_bytes > 0
    assert "device 1" in stats_a.describe()


def test_untrusted_device_stats_zero_attest():
    sim = Simulator()
    device = TnicDevice(sim, 9, "10.0.0.9", "m-x", ArpServer(), trusted=False)
    stats = device.stats()
    assert stats.attestations == 0
    assert stats.verifications == 0


# ---------------------------------------------------------------------------
# FPGA resources (Table 5)
# ---------------------------------------------------------------------------

def test_resource_usage_arithmetic():
    a = ResourceUsage(10, 20, 2)
    b = ResourceUsage(1, 2, 1)
    assert a + b == ResourceUsage(11, 22, 3)
    assert b.scaled(3) == ResourceUsage(3, 6, 3)
    with pytest.raises(ValueError):
        b.scaled(-1)
    assert b.fits_in(a)
    assert not a.fits_in(b)


def test_fpga_model_rejects_zero_connections():
    with pytest.raises(ValueError):
        FpgaModel().design_usage(0)


def test_fpga_model_second_roce_kernel_beyond_500():
    model = FpgaModel(capacity=ResourceUsage(10**9, 10**9, 10**9))
    low = model.design_usage(500)
    high = model.design_usage(501)
    from repro.core.resources import ROCE_KERNEL, ATTESTATION_REPLICA_INCREMENT

    extra = high.lut - low.lut
    assert extra == ROCE_KERNEL.lut + ATTESTATION_REPLICA_INCREMENT.lut


def test_single_connection_matches_table5_total():
    usage = FpgaModel().design_usage(1)
    assert usage.lut == 216_905
    assert usage.ff == 423_891
    assert usage.ramb36 == 335
    assert usage.fits_in(U280)
