"""Detached instrumentation is not called at all on a per-message path.

What is tested here:

* With no telemetry hub attached, a run of each of the
  seven benchmarked workload shapes (the BFT counter, the chain, the
  CFT Raft control, the PeerReview audit, 64 B and 16 KiB window-16
  ``auth_send`` and 1 KiB ``auth_send`` over a lossy fabric) and of
  the paper's other systems (A2M's Table 3 append-and-lookup mix on
  TNIC, TEEs-CR at the chain's request mix, and the BFT counter with
  its leader silent from the start, so every batch pays a view change)
  makes *zero* calls into the instrument hooks, the :class:`NullSpan`
  methods.  A detached hook is not free (a Python call plus its keyword
  dict, ~100 ns), so per-message call sites gate on ``sim.telemetry``
  or a held span's identity before they call one.  Set-up and the fault branches
  (rejection, mismatch, replay, equivocation) may still call a hook,
  which keeps its own check.  The spies wrap every ``repro.*`` global
  that *is* one of those functions, as the benchmark's span patcher
  finds the functions it times.
* Attached, the same paths still open every span (and the spies see
  the calls, so the zero counts above are not vacuous).
* No trace *arguments* (``Packet.describe()``, f-strings) are built
  and the hub is never invoked while detached, and ``span_begin``
  hands back the shared :data:`NULL_SPAN` singleton.

(That the gating is not achieved by smuggling imports into the trusted
packages is BND001's job: ``tests/test_tcb_boundaries.py``.)
"""

import inspect
import sys
from collections import Counter

import pytest

from repro.api import Cluster, auth_send, ops
from repro.bench.workload import kv_workload
from repro.net import NetworkFault
from repro.net.packet import Packet
from repro.sim import Simulator
from repro.sim import instrument
from repro.sim.instrument import NULL_SPAN, NullSpan, count, span_begin
from repro.systems.a2m import A2M
from repro.systems.bft import BftCounter
from repro.systems.bft_viewchange import ViewChangeBftCounter
from repro.systems.chain import ChainReplication
from repro.systems.cr_cft import TeeChainReplication
from repro.systems.peer_review import PeerReviewSystem
from repro.systems.raft import TeeRaft
from repro.tee import make_provider
from repro.telemetry import Telemetry, Tracer
from tests.test_send_path import _pair, _send_windowed


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
    assert cluster.sim.telemetry is None
    _run_auth_round(cluster)
    # Not merely "no records buffered": the record call and the message
    # construction never happened at all.
    assert spies["record"] == 0
    assert spies["describe"] == 0


def test_trace_work_happens_when_tracer_attached(spies):
    cluster = Cluster(["a", "b"])
    hub = Telemetry.attach(cluster.sim)
    _run_auth_round(cluster)
    assert spies["record"] > 0
    assert spies["describe"] > 0
    assert len(hub.trace) > 0


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
    invoked = []
    for name in ("count", "gauge_set", "observe", "emit", "span_begin"):
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


# ----------------------------------------------------------------------
# The per-message contract, one workload shape at a time
# ----------------------------------------------------------------------
def _spied_functions() -> list:
    """Every instrument hook."""
    return [value for value in vars(instrument).values()
            if inspect.isfunction(value)
            and value.__module__ == instrument.__name__]


@pytest.fixture
def spy(monkeypatch):
    """Returns a function that installs the spies and hands back their
    tally; shapes call it after set-up, so only the run is counted."""

    def install() -> Counter:
        tally: Counter = Counter()
        modules = [module for name, module in sorted(sys.modules.items())
                   if module is not None
                   and (name == "repro" or name.startswith("repro."))]
        for original in _spied_functions():
            def wrapper(*args, _original=original,
                        _name=original.__name__, **kwargs):
                tally[_name] += 1
                return _original(*args, **kwargs)

            for module in modules:
                for attribute, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attribute, wrapper)
        for method in ("child", "end", "annotate", "__bool__"):
            def null_method(self, *args, _original=getattr(NullSpan, method),
                            _name=f"NullSpan.{method}", **kwargs):
                tally[_name] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(NullSpan, method, null_method)
        return tally

    return install


def _bft():
    system = BftCounter("tnic", f=1, seed=0)

    def run():
        system.run_workload(12, pipeline_depth=4)
        assert system.metrics.committed == 12
        assert not system.detected_faults()

    return system.sim, run


def _chain():
    system = ChainReplication("tnic", seed=0)
    requests = kv_workload(20, read_fraction=0.5, seed=0)

    def run():
        assert system.run_workload(requests).committed == 20
        assert not system.detected_faults()

    return system.sim, run


def _bft_viewchange():
    # The leader is silent from the start: every batch pays a watchdog,
    # a view-change vote and a new leader's re-execution.
    system = ViewChangeBftCounter("tnic", f=1, seed=0, silent_replicas={"r0"})

    def run():
        assert system.run_workload(3).committed == 3
        assert not system.aborted
        assert all(system.replicas[name].view >= 1 for name in ("r1", "r2"))

    return system.sim, run


def _cr_cft():
    system = TeeChainReplication(chain_length=3)
    requests = kv_workload(20, read_fraction=0.5, seed=0)

    def run():
        assert system.run_workload(requests).committed == 20
        assert system.stores_consistent()

    return system.sim, run


def _raft():
    system = TeeRaft(nodes=3)

    def run():
        assert system.run_workload(20).committed == 20
        assert system.logs_consistent()

    return system.sim, run


def _peer_review():
    system = PeerReviewSystem("tnic", audit=True, seed=0)

    def run():
        assert system.run_workload(6).committed == 6
        assert not system.detected_faults()

    return system.sim, run


def _a2m():
    # Table 3 on TNIC: 64 B appends to one log in untrusted storage,
    # then a lookup of each entry.
    sim = Simulator()
    provider = make_provider("tnic", sim, 1, seed=13)
    provider.install_session(1, b"a2m-gate-key-0123456789abcdef!!!")
    a2m = A2M(provider, 1)

    def run():
        entries = [sim.run(a2m.append("log", b"x" * 64)) for _ in range(12)]
        for index, entry in enumerate(entries):
            assert sim.run(a2m.lookup("log", index)) is entry
        assert a2m.verify_range("log", 0, len(entries))

    return sim, run


def _send(payload_bytes: int, messages: int, fault: NetworkFault | None = None):
    def shape():
        cluster = Cluster(["a", "b"], fault=fault, seed=0)
        conn_a, conn_b = cluster.connect("a", "b")
        cluster.run()

        def run():
            _send_windowed(cluster, conn_a, messages, payload_bytes)
            received = 0
            while ops.recv(conn_b) is not None:
                received += 1
            assert received == messages
            if fault is not None:
                # The lossy branches really ran: drop, duplicate,
                # reorder and go-back-N.
                stats = cluster.fabric.stats
                assert stats.dropped and stats.duplicated and stats.reordered
                assert sum(s.retransmissions for s in
                           cluster["a"].device.roce.tables.values())

        return cluster.sim, run

    return shape


SHAPES = {
    "a2m_tnic": _a2m,
    "bft_counter": _bft,
    "bft_viewchange": _bft_viewchange,
    "chain_kv": _chain,
    "cr_cft": _cr_cft,
    "raft_cft": _raft,
    "peer_review_audit": _peer_review,
    "send_small": _send(64, 40),
    "send_large": _send(16 * 1024, 20),
    "send_lossy": _send(1024, 60, NetworkFault(
        drop_probability=0.1, duplicate_probability=0.1,
        reorder_probability=0.1)),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_a_detached_run_calls_no_hook(shape, spy):
    sim, run = SHAPES[shape]()
    assert sim.telemetry is None
    calls = spy()
    run()
    assert calls == Counter(), f"{shape} called detached hooks: {dict(calls)}"


def test_an_attached_run_still_opens_every_span(spy):
    bft = BftCounter("tnic", f=1, seed=0)
    bft_hub = Telemetry.attach(bft.sim)
    cluster, conn_a, _ = _pair()
    send_hub = Telemetry.attach(cluster.sim)
    calls = spy()
    bft.run_workload(2)
    _send_windowed(cluster, conn_a, 2, 64)
    names = {span.name for hub in (bft_hub, send_hub)
             for span in hub.spans.finished}
    assert {
        "bft.request", "bft.leader", "bft.follower", "bft.leader_ack",
        "bft.rx_verify", "attest.hmac", "system.net_hop",
        "request.auth_send", "tnic.post", "tnic.tx", "tnic.dma", "roce.tx",
        "roce.rx_verify",
    } <= names
    for hook in ("span_begin", "count", "gauge_set", "observe", "emit"):
        assert calls[hook] > 0, hook
