"""Benchmark — the trusted RPC layer over TNIC.

Not a paper figure: quantifies the programming-surface extension.
Measures RPC round-trip latency and pipelined throughput over the full
simulated datapath (DMA, attestation, RoCE, wire, verify) and relates
them to the raw one-way TNIC send latency of Figure 9.
"""

from conftest import register_artefact

from repro.bench.report import Table
from repro.api import Cluster
from repro.api.rpc import RpcEndpoint
from repro.sim import latency as cal

SIZES = [64, 512, 2048]
CALLS = 30


def measure():
    results = {}
    for size in SIZES:
        cluster = Cluster(["client", "server"])
        c_conn, s_conn = cluster.connect("client", "server")
        client = RpcEndpoint(c_conn)
        server = RpcEndpoint(s_conn)
        server.serve(lambda request: request)  # echo

        start = cluster.sim.now
        for _ in range(CALLS):
            cluster.run(client.call(b"x" * size, timeout_us=1e6))
        serial_elapsed = cluster.sim.now - start
        serial_rtt = serial_elapsed / CALLS

        start = cluster.sim.now
        calls = [client.call(b"x" * size, timeout_us=1e6) for _ in range(CALLS)]
        for call in calls:
            cluster.run(call)
        pipelined = CALLS / ((cluster.sim.now - start) / 1e6)
        results[size] = {
            "rtt_us": serial_rtt,
            "pipelined_ops": pipelined,
            "stats": cluster["server"].device.stats(),
        }
    return results


def test_rpc_layer(benchmark):
    results = benchmark.pedantic(measure, rounds=1, iterations=1)

    for size in SIZES:
        row = results[size]
        # An RPC is two trusted sends plus host processing: the RTT must
        # exceed 2x the one-way model but stay within a small factor.
        one_way = cal.tnic_send_us(size)
        assert row["rtt_us"] > 2 * one_way * 0.8
        assert row["rtt_us"] < 8 * one_way + 100
        # Every call produced attestations and verifications.
        assert row["stats"].attestations >= CALLS
        assert row["stats"].verifications >= CALLS
        assert row["stats"].rejections == 0
    assert results[64]["pipelined_ops"] > 1.2 * (1e6 / results[64]["rtt_us"])

    table = Table(
        "RPC layer over TNIC",
        ["request bytes", "RTT us", "pipelined op/s", "1-way model us"],
    )
    for size in SIZES:
        table.add_row(
            size,
            f"{results[size]['rtt_us']:.1f}",
            f"{results[size]['pipelined_ops']:.0f}",
            f"{cal.tnic_send_us(size):.1f}",
        )
    register_artefact("RPC layer", table.render())
