"""Tests for the telemetry hub's trace ring."""

import pytest

from repro.api import Cluster, auth_send
from repro.net.fabric import NetworkFault
from repro.sim.instrument import emit
from repro.telemetry import Telemetry, Tracer, TraceRecord


def test_record_render():
    record = TraceRecord(12.5, "roce.tx", "send psn=0", {"node": "10.0.0.1"})
    text = record.render()
    assert "12.50us" in text and "roce.tx" in text and "node=10.0.0.1" in text


def test_tracer_capacity_bounded():
    tracer = Tracer(capacity=3)
    for i in range(10):
        tracer.record(float(i), "cat", f"m{i}")
    assert len(tracer) == 3
    assert tracer.records()[0].message == "m7"
    assert tracer.emitted == 10


def test_tracer_eviction_accounted_separately_from_drops():
    tracer = Tracer(capacity=3)
    for i in range(10):
        tracer.record(float(i), "cat", f"m{i}")
    # 7 records were buffered then pushed out of the full ring.
    assert tracer.evicted == 7
    assert tracer.emitted - tracer.evicted == len(tracer)


def test_tracer_validation():
    with pytest.raises(ValueError):
        Tracer(capacity=0)


def test_emit_noop_without_tracer():
    # Simulator.__init__ guarantees the attribute; emit's off path is a
    # plain attribute load, so a sim-alike needs telemetry = None.
    class FakeSim:
        now = 0.0
        telemetry = None

    emit(FakeSim(), "cat", "message")  # must not raise


def test_cluster_traffic_is_traceable():
    cluster = Cluster(["a", "b"])
    tracer = Telemetry.attach(cluster.sim).trace
    conn_a, _ = cluster.connect("a", "b")
    cluster.run(auth_send(conn_a, b"traced"))
    cluster.run()
    tx = tracer.records("roce.tx")
    rx = tracer.records("roce.rx")
    attest = tracer.records("attest.generate")
    assert tx and rx and attest
    assert any("send" in r.message for r in tx)
    rendered = tracer.render("roce.")
    assert "roce.tx" in rendered


def test_rejections_traced_under_attack():
    state = {"hit": False}

    def tamper_once(pkt):
        if pkt.payload and pkt.trailer is not None and not state["hit"]:
            state["hit"] = True
            return pkt.with_payload(b"\x00" * len(pkt.payload))
        return None

    cluster = Cluster(["a", "b"], fault=NetworkFault(tamper=tamper_once))
    tracer = Telemetry.attach(cluster.sim).trace
    conn_a, _ = cluster.connect("a", "b")
    cluster.run(auth_send(conn_a, b"target"))
    cluster.run()
    assert tracer.records("attest.reject")
    assert tracer.records("roce.reject")


def test_clear():
    tracer = Tracer()
    tracer.record(0.0, "x", "y")
    tracer.clear()
    assert len(tracer) == 0
