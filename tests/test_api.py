"""Integration tests for the TNIC programming APIs (Table 1)."""

import tracemalloc

import pytest

from repro.api import Cluster, auth_send, local_send, local_verify, poll, rem_read, rem_write
from repro.api.connection import SessionDirectory, ibv_sync
from repro.api.ops import recv
from repro.core.attestation import AttestedMessage
from repro.core.device import RemoteAccessError
from repro.net.packet import RdmaExtendedHeader, RdmaOpcode
from repro.stack import MemoryError_


def make_cluster(names=("alice", "bob"), **kwargs):
    return Cluster(list(names), **kwargs)


def test_full_initialisation_and_auth_send():
    cluster = make_cluster()
    a_conn, b_conn = cluster.connect("alice", "bob")
    completion = auth_send(a_conn, b"hello")
    cluster.run(completion)
    cluster.run()
    item = recv(b_conn)
    assert item["payload"] == b"hello"
    assert item["message"].device_id == cluster["alice"].device.device_id


def test_auth_send_requires_sync():
    cluster = make_cluster()
    session_id, _ = cluster.sessions.new_session()
    conn = cluster["alice"].ibv_qp_conn(cluster["bob"].ip, session_id)
    with pytest.raises(RuntimeError, match="sync"):
        auth_send(conn, b"x")


def test_poll_counts_verified_receptions_only():
    cluster = make_cluster()
    a_conn, b_conn = cluster.connect("alice", "bob")
    for i in range(4):
        cluster.run(auth_send(a_conn, f"m{i}".encode()))
    cluster.run()
    entries = poll(b_conn, max_entries=10)
    assert [e["msn"] for e in entries] == [0, 1, 2, 3]
    assert poll(b_conn) == []


def test_rem_write_lands_in_remote_window():
    cluster = make_cluster()
    a_conn, b_conn = cluster.connect("alice", "bob")
    completion = rem_write(a_conn, 128, b"remote-data")
    cluster.run(completion)
    cluster.run()
    recv(b_conn)  # consume the delivery notification
    window = cluster["bob"].rdma.memory_table
    assert window.dma_read(a_conn.remote_base + 128, 11, a_conn.remote_rkey) == b"remote-data"


def test_rem_write_is_placed_without_a_receiver_call():
    # One-sided: the remote device places the WRITE once it is verified;
    # the receiving host does not have to recv() or poll() for it.
    cluster = make_cluster()
    a_conn, b_conn = cluster.connect("alice", "bob")
    cluster.run(rem_write(a_conn, 256, b"one-sided"))
    cluster.run()
    window = cluster["bob"].rdma.memory_table
    assert window.dma_read(a_conn.remote_base + 256, 9, a_conn.remote_rkey) == b"one-sided"
    # The notification is still delivered, once.
    [entry] = poll(b_conn)
    assert entry["opcode"] is RdmaOpcode.WRITE
    assert recv(b_conn) is None


def test_each_delivery_is_consumed_once_by_recv_or_poll():
    cluster = make_cluster()
    a_conn, b_conn = cluster.connect("alice", "bob")
    payloads = [f"m{i}".encode() for i in range(30)]
    for payload in payloads:
        auth_send(a_conn, payload)
    cluster.run()
    drained = [item["payload"] for item in iter(lambda: recv(b_conn), None)]
    assert drained == payloads
    assert poll(b_conn) == []  # recv left no completion behind
    for payload in payloads[:4]:
        auth_send(a_conn, payload)
    cluster.run()
    entries = poll(b_conn, max_entries=3) + poll(b_conn, max_entries=3)
    assert [e["payload"] for e in entries] == payloads[:4]
    assert [e["msn"] for e in entries] == [30, 31, 32, 33]
    assert recv(b_conn) is None  # ... and poll left no message behind


def test_rem_write_bounds_checked():
    cluster = make_cluster()
    a_conn, _ = cluster.connect("alice", "bob")
    with pytest.raises(ValueError):
        rem_write(a_conn, a_conn.remote_size - 1, b"too-long")


def test_rem_read_fetches_remote_bytes():
    cluster = make_cluster()
    a_conn, b_conn = cluster.connect("alice", "bob")
    # Bob publishes data in his registered window.
    window = cluster["bob"].rdma.memory_table
    window.dma_write(a_conn.remote_base + 64, b"published", a_conn.remote_rkey)
    read_done = rem_read(a_conn, 64, 9)
    assert cluster.run(read_done) == b"published"


def test_a_zero_length_read_of_a_later_window_is_granted():
    # The second connection's window starts where the first connection's
    # staging region ends, so an empty READ at its base lies in both.
    cluster = make_cluster()
    cluster.connect("alice", "bob")
    a_conn, _ = cluster.connect("alice", "bob")
    assert cluster.run(rem_read(a_conn, 0, 0)) == b""
    assert cluster["bob"].device.stats().remote_access_refusals == 0


def test_rem_read_bounds_checked():
    cluster = make_cluster()
    a_conn, _ = cluster.connect("alice", "bob")
    with pytest.raises(ValueError):
        rem_read(a_conn, -1, 4)


def test_rem_read_rejects_a_negative_length_before_posting():
    cluster = make_cluster()
    a_conn, _ = cluster.connect("alice", "bob")
    with pytest.raises(ValueError, match="negative"):
        rem_read(a_conn, 64, -1)
    assert cluster["alice"].device.stats().tx_packets == 0


def test_a_write_with_a_foreign_rkey_places_nothing():
    # The window's peer forges a WRITE into the responder's private
    # staging region, once with a made-up rkey and once with the rkey
    # of the window it was granted: both are refused and counted.
    cluster = Cluster(["a", "b"])
    a, b = cluster.connect("a", "b")
    target = b.tx_region.base
    for rkey in (12345, a.remote_rkey):
        done = a.node.device.send(a.qp_number, b"PWNED", opcode=RdmaOpcode.WRITE,
                                  reth=RdmaExtendedHeader(target, rkey))
        cluster.run(done)
    cluster.run()
    assert b.tx_region.read(target, 5) == bytes(5)
    assert b.node.device.stats().remote_access_refusals == 2
    assert recv(b) is None  # a refused WRITE notifies nobody
    cluster.run(rem_write(a, 0, b"granted"))  # the window itself still opens
    cluster.run()
    assert b.node.rdma.memory_table.dma_read(
        a.remote_base, 7, a.remote_rkey) == b"granted"


@pytest.mark.parametrize("rkey, refusal", [(None, "rkey None names no registered"),
                                           ("window", "outside region")],
                         ids=["None", "window"])
def test_a_refused_read_fails_the_requester_and_the_run_goes_on(rkey, refusal):
    cluster = Cluster(["a", "b"])
    a, b = cluster.connect("a", "b")
    key = a.remote_rkey if rkey == "window" else rkey
    read = a.node.device.read_remote(a.qp_number, 0xDEAD0000, 16, rkey=key)
    with pytest.raises(RemoteAccessError, match=refusal):
        cluster.run(read)
    # No rkey at all is refused even inside the window.
    unkeyed = a.node.device.read_remote(a.qp_number, a.remote_base, 4)
    with pytest.raises(RemoteAccessError, match="rkey"):
        cluster.run(unkeyed)
    assert b.node.device.stats().remote_access_refusals == 2
    assert cluster.run(rem_read(a, 0, 4)) == bytes(4)
    cluster.run(auth_send(a, b"still up"))
    cluster.run()
    assert recv(b)["payload"] == b"still up"


def test_a_self_connection_is_refused_before_any_state_changes():
    cluster = Cluster(["a", "b"])
    keystore = cluster["a"].device.attestation.keystore
    with pytest.raises(ValueError, match="itself"):
        cluster.connect("a", "a")
    assert len(keystore) == 0
    a_conn, _ = cluster.connect("a", "b")
    assert a_conn.qp.session_id == 1
    assert keystore.sessions() == [1]


def test_local_send_and_verify_roundtrip():
    cluster = make_cluster()
    a_conn, b_conn = cluster.connect("alice", "bob")

    def run():
        msg = yield local_send(a_conn, b"log-entry")
        ok = yield local_verify(b_conn, msg)
        return msg, ok

    msg, ok = cluster.run(cluster.sim.process(run()))
    assert ok is True
    assert isinstance(msg, AttestedMessage)


def test_local_verify_rejects_forgery():
    cluster = make_cluster()
    a_conn, b_conn = cluster.connect("alice", "bob")

    def run():
        msg = yield local_send(a_conn, b"entry")
        forged = AttestedMessage(
            payload=b"forged", alpha=msg.alpha, session_id=msg.session_id,
            device_id=msg.device_id, counter=msg.counter,
        )
        ok = yield local_verify(b_conn, forged)
        return ok

    assert cluster.run(cluster.sim.process(run())) is False


def test_equivocation_free_multicast_pattern():
    """local_send() once, unicast the identical attested message (§6.1)."""
    cluster = make_cluster(("leader", "f1", "f2"))
    # All followers share the leader's session key via separate conns.
    c1, f1 = cluster.connect("leader", "f1")
    c2, f2 = cluster.connect("leader", "f2")

    def run():
        msg = yield local_send(c1, b"decision")
        ok1 = yield local_verify(f1, msg)
        return msg, ok1

    msg, ok1 = cluster.run(cluster.sim.process(run()))
    assert ok1 is True
    # A different session cannot verify it (keys differ per session).
    def run2():
        ok = yield local_verify(f2, msg)
        return ok

    assert cluster.run(cluster.sim.process(run2())) is False


def test_ibv_sync_validation():
    cluster = make_cluster(("a", "b", "c"))
    sid, key = cluster.sessions.new_session()
    for name in ("a", "b", "c"):
        cluster[name].device.install_session(sid, key)
    conn_ab = cluster["a"].ibv_qp_conn(cluster["b"].ip, sid)
    conn_ca = cluster["c"].ibv_qp_conn(cluster["a"].ip, sid)
    with pytest.raises(ValueError, match="point at each other"):
        ibv_sync(conn_ab, conn_ca)


def test_session_directory_unique_sessions():
    directory = SessionDirectory()
    s1, k1 = directory.new_session()
    s2, k2 = directory.new_session()
    assert s1 != s2
    assert k1 != k2
    assert len(k1) == 32


def test_cluster_rejects_duplicate_names():
    with pytest.raises(ValueError):
        Cluster(["x", "x"])


def test_rem_ops_require_remote_window():
    cluster = Cluster(["a", "b"])
    session_id, key = cluster.sessions.new_session()
    cluster["a"].device.install_session(session_id, key)
    cluster["b"].device.install_session(session_id, key)
    conn = cluster["a"].ibv_qp_conn(cluster["b"].ip, session_id)
    peer = cluster["b"].ibv_qp_conn(cluster["a"].ip, session_id)
    from repro.api.connection import ibv_sync

    conn.tx_region = cluster["a"].alloc_mem(4096)
    cluster["a"].init_lqueue(conn.tx_region)
    ibv_sync(conn, peer)  # no regions exchanged
    with pytest.raises(RuntimeError, match="remote window"):
        rem_write(conn, 0, b"x")
    with pytest.raises(RuntimeError, match="remote window"):
        rem_read(conn, 0, 4)


def test_stage_rejects_oversized_payload():
    cluster = Cluster(["a", "b"])
    conn, _ = cluster.connect("a", "b", region_bytes=4096)
    with pytest.raises(ValueError, match="larger than"):
        conn.stage(b"x" * (conn.tx_region.size + 1))


def test_stage_wraps_cursor():
    cluster = make_cluster()
    a_conn, _ = cluster.connect("alice", "bob", region_bytes=4096)
    # tx region is one huge page; force wrap by staging beyond the end.
    a_conn._tx_cursor = a_conn.tx_region.size - 8
    address = a_conn.stage(b"0123456789abcdef")
    assert address == a_conn.tx_region.base


def test_bidirectional_auth_send():
    cluster = make_cluster()
    a_conn, b_conn = cluster.connect("alice", "bob")
    ca = auth_send(a_conn, b"ping")
    cb = auth_send(b_conn, b"pong")
    cluster.run(ca)
    cluster.run(cb)
    cluster.run()
    assert recv(b_conn)["payload"] == b"ping"
    assert recv(a_conn)["payload"] == b"pong"


def _traced_bytes(build):
    """Peak bytes the Python allocator traced while *build* ran."""
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_connection_does_not_zero_fill_its_regions():
    # Four 4 MiB regions per connection: ibv memory is demand-zero, so
    # none of it is allocated before a byte is staged.
    cluster = Cluster(["a", "b"])
    assert _traced_bytes(lambda: cluster.connect("a", "b")) < 1 << 20
    names = [f"n{i}" for i in range(6)]
    full_mesh = Cluster(names)
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    assert len(pairs) == 15
    assert _traced_bytes(
        lambda: [full_mesh.connect(a, b) for a, b in pairs]) < 4 << 20


@pytest.mark.parametrize("size", [0, -4096])
def test_connect_rejects_a_nonpositive_region_size(size):
    cluster = Cluster(["a", "b"])
    with pytest.raises(MemoryError_, match="must be positive"):
        cluster.connect("a", "b", region_bytes=size)


# ---------------------------------------------------------------------------
# API error paths
# ---------------------------------------------------------------------------

def test_stage_requires_tx_region():
    from repro.api.connection import IbvConnection
    from repro.roce.queue_pair import QueuePair

    cluster = Cluster(["a", "b"])
    session_id, _ = cluster.sessions.new_session()
    conn = IbvConnection(
        node=cluster["a"],
        qp=QueuePair(qp_number=1, session_id=session_id,
                     local_ip="10.0.0.1", remote_ip="10.0.0.2"),
    )
    with pytest.raises(RuntimeError, match="no tx region"):
        conn.stage(b"x")
