"""Tests for the trusted RPC layer."""

import pytest

from repro.api import Cluster, poll
from repro.api.rpc import RpcEndpoint, RpcError, RpcTimeout
from repro.net.fabric import NetworkFault


def make_pair(fault=None):
    cluster = Cluster(["client", "server"], fault=fault)
    c_conn, s_conn = cluster.connect("client", "server")
    client = RpcEndpoint(c_conn)
    server = RpcEndpoint(s_conn)
    return cluster, client, server


def test_echo_roundtrip():
    cluster, client, server = make_pair()
    server.serve(lambda request: b"echo:" + request)
    response = cluster.run(client.call(b"ping"))
    assert response == b"echo:ping"
    assert client.calls_sent == 1
    assert server.calls_served == 1


def test_multiple_outstanding_calls_correlate():
    cluster, client, server = make_pair()
    server.serve(lambda request: b"r:" + request)
    calls = [client.call(f"q{i}".encode()) for i in range(5)]
    responses = [cluster.run(call) for call in calls]
    assert responses == [f"r:q{i}".encode() for i in range(5)]


def test_a_pushed_delivery_leaves_nothing_to_poll():
    cluster, client, server = make_pair()
    server.serve(lambda request: request)
    calls = [client.call(bytes([index])) for index in range(50)]
    assert [cluster.run(call) for call in calls] == [
        bytes([index]) for index in range(50)]
    cluster.run()
    # The push callback consumed every request and reply: neither
    # connection has a completion or a message left over.
    assert poll(client.conn, max_entries=100) == []
    assert poll(server.conn, max_entries=100) == []


def test_bidirectional_rpc():
    cluster, client, server = make_pair()
    server.serve(lambda request: b"from-server")
    client.serve(lambda request: b"from-client")
    assert cluster.run(client.call(b"x")) == b"from-server"
    assert cluster.run(server.call(b"y")) == b"from-client"


def test_no_handler_is_an_error():
    cluster, client, _server = make_pair()
    with pytest.raises(RpcError, match="no handler"):
        cluster.run(client.call(b"ping"))


def test_handler_exception_propagates_as_rpc_error():
    cluster, client, server = make_pair()

    def bad_handler(request):
        raise ValueError("kaboom")

    server.serve(bad_handler)
    with pytest.raises(RpcError, match="kaboom"):
        cluster.run(client.call(b"ping"))
    assert server.handler_errors == 1


def test_timeout_on_unresponsive_server():
    cluster, client, server = make_pair()
    server.close()  # server stops consuming RPC traffic

    call = client.call(b"ping", timeout_us=1_000.0)
    with pytest.raises(RpcTimeout):
        cluster.run(call)


def test_rpc_survives_hostile_network():
    """Drops/duplicates/reorder below the RPC layer are invisible."""
    fault = NetworkFault(drop_probability=0.2, duplicate_probability=0.2,
                         reorder_probability=0.2)
    cluster, client, server = make_pair(fault=fault)
    server.serve(lambda request: b"ok:" + request)
    for i in range(8):
        assert cluster.run(client.call(f"m{i}".encode(),
                                       timeout_us=1e6)) == f"ok:m{i}".encode()


def test_malformed_frame_rejected():
    from repro.api.rpc import _parse

    with pytest.raises(RpcError):
        _parse(b"tiny")


def test_large_rpc_payloads_segment_transparently():
    cluster, client, server = make_pair()
    server.serve(lambda request: request[::-1])
    big = bytes(range(256)) * 40  # 10 KiB > path MTU
    response = cluster.run(client.call(big, timeout_us=1e6))
    assert response == big[::-1]
