"""The zero-cost-when-off contract of the instrumentation layer.

The fast path never pays for observability it is not using: with no
tracer attached, ``Tracer.record`` is never invoked and no expensive
trace *arguments* (``Packet.describe()``, f-strings) are built; with no
telemetry hub attached, the hub is never invoked and ``span_begin``
hands back the shared :data:`NULL_SPAN` singleton.  (That the gating
is not achieved by smuggling imports into the trusted packages is
BND001's job: ``tests/test_tcb_boundaries.py``.)
"""

import pytest

from repro.api import Cluster, auth_send
from repro.net.packet import Packet
from repro.sim import Simulator
from repro.sim.instrument import NULL_SPAN, count, span_begin
from repro.sim.trace import Tracer, tracing


def _run_auth_round(cluster: Cluster) -> None:
    conn, _ = cluster.connect("a", "b")
    cluster.run(auth_send(conn, b"gate-test"))
    cluster.run()


@pytest.fixture
def spies(monkeypatch):
    calls = {"record": 0, "describe": 0}
    real_record = Tracer.record
    real_describe = Packet.describe

    def record_spy(self, *args, **kwargs):
        calls["record"] += 1
        return real_record(self, *args, **kwargs)

    def describe_spy(self):
        calls["describe"] += 1
        return real_describe(self)

    monkeypatch.setattr(Tracer, "record", record_spy)
    monkeypatch.setattr(Packet, "describe", describe_spy)
    return calls


def test_no_trace_work_when_tracer_detached(spies):
    cluster = Cluster(["a", "b"])
    assert cluster.sim.tracer is None
    _run_auth_round(cluster)
    # Not merely "no records buffered": the record call and the message
    # construction never happened at all.
    assert spies["record"] == 0
    assert spies["describe"] == 0


def test_trace_work_happens_when_tracer_attached(spies):
    cluster = Cluster(["a", "b"])
    cluster.sim.tracer = Tracer()
    _run_auth_round(cluster)
    assert spies["record"] > 0
    assert spies["describe"] > 0
    assert len(cluster.sim.tracer) > 0


def test_tracing_gate_reflects_attachment():
    sim = Simulator()
    assert tracing(sim) is False
    sim.tracer = Tracer()
    assert tracing(sim) is True


def test_span_begin_returns_null_span_singleton_when_detached():
    sim = Simulator()
    span = span_begin(sim, "stage", node="n1")
    assert span is NULL_SPAN
    # The singleton absorbs the whole span surface without allocating.
    assert span.child("nested") is NULL_SPAN
    span.annotate(extra=1)
    span.end(status="ok")
    assert not span


def test_hub_not_invoked_when_telemetry_detached(monkeypatch):
    from repro.telemetry import Telemetry

    invoked = []
    for name in ("count", "gauge_set", "observe", "span_begin"):
        real = getattr(Telemetry, name)

        def spy(self, *args, __real=real, __name=name, **kwargs):
            invoked.append(__name)
            return __real(self, *args, **kwargs)

        monkeypatch.setattr(Telemetry, name, spy)

    cluster = Cluster(["a", "b"])
    assert cluster.sim.telemetry is None
    _run_auth_round(cluster)
    count(cluster.sim, "extra.counter")
    assert invoked == []
