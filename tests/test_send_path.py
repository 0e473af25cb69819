"""The callback-chained send path: post → DMA → attest → wire → ACK.

Three contracts of the chain in ``repro.core.device`` (``_Send``) and
``repro.stack.rdma_lib`` (``_Post``):

* every failure fails the returned event — nothing raises out of
  ``sim.run()``, nothing deadlocks, and the REG lock is released;
* a send costs a bounded, host-independent number of scheduler events
  and starts no process;
* the Fig. 6 stage spans open and close at the instants they always did.
"""

from collections import deque

import pytest

from repro.api import Cluster, auth_send
from repro.api.ops import recv
from repro.core.attestation import UnknownSessionError
from repro.net.packet import RdmaOpcode
from repro.roce.transport import TransportError
from repro.sim.clock import Simulator
from repro.stack.memory import MemoryError_
from repro.stack.rdma_lib import WorkRequest
from repro.telemetry import Telemetry
from repro.telemetry.profiler import Profiler


def _pair():
    cluster = Cluster(["a", "b"], seed=0)
    conn_a, conn_b = cluster.connect("a", "b")
    cluster.run()
    return cluster, conn_a, conn_b


# ----------------------------------------------------------------------
# Error paths
# ----------------------------------------------------------------------
def test_device_send_on_unknown_qp_fails_its_completion():
    """Used to die inside the anonymous tx process and leave the caller
    with "simulation ran out of events ... (deadlock?)"."""
    cluster, conn_a, _ = _pair()
    done = conn_a.node.device.send(9999, b"x")
    with pytest.raises(KeyError, match="unknown QP 9999"):
        cluster.run(done)


def _request_unknown_qp(cluster, conn):
    return WorkRequest(RdmaOpcode.SEND, 9999, conn.stage(b"x" * 64), 64)


def _request_unconnected_qp(cluster, conn):
    # Its own session: the payload is attested before the transport
    # refuses it, which spends a send counter.
    conn.node.device.install_session(55, b"k" * 32)
    fresh = conn.node.ibv_qp_conn(cluster["b"].ip, session_id=55)
    return WorkRequest(RdmaOpcode.SEND, fresh.qp_number, conn.stage(b"x" * 64), 64)


def _request_uninstalled_session(cluster, conn):
    fresh = conn.node.ibv_qp_conn(cluster["b"].ip, session_id=777)
    conn.node.device.connect_qp(fresh.qp_number, 1)
    return WorkRequest(RdmaOpcode.SEND, fresh.qp_number, conn.stage(b"x" * 64), 64)


def _request_unregistered_address(cluster, conn):
    return WorkRequest(RdmaOpcode.SEND, conn.qp_number, 0x10, 64)


@pytest.mark.parametrize("build, error", [
    (_request_unknown_qp, KeyError),
    (_request_unconnected_qp, TransportError),
    (_request_uninstalled_session, UnknownSessionError),
    (_request_unregistered_address, MemoryError_),
])
def test_failed_post_fails_its_event_and_releases_the_reg_lock(build, error):
    cluster, conn_a, conn_b = _pair()
    rdma = conn_a.node.rdma
    failed = rdma.post(build(cluster, conn_a))
    cluster.run()  # nothing raises out of the loop
    assert failed.processed and not failed.ok
    with pytest.raises(error):
        failed.value
    assert not conn_a.node.process.contended
    # A following post goes through: the lock was released.
    cluster.run(auth_send(conn_a, b"after the failure"))
    cluster.run()
    assert recv(conn_b)["payload"] == b"after the failure"


def test_local_verify_with_unknown_session_fails_its_completion():
    cluster, conn_a, _ = _pair()
    device = conn_a.node.device
    message = cluster.run(device.local_attest(conn_a.session_id, b"payload"))
    assert cluster.run(device.local_verify(conn_a.session_id, message)) is True
    with pytest.raises(UnknownSessionError):
        cluster.run(device.local_verify(777, message))


# ----------------------------------------------------------------------
# Event budget: exact and host-independent
# ----------------------------------------------------------------------
def test_send_costs_at_most_18_events_and_starts_no_process(monkeypatch):
    messages, window = 200, 16
    cluster, conn_a, conn_b = _pair()
    sim = cluster.sim
    # The first data packet of a connection starts its delivery lane.
    cluster.run(auth_send(conn_a, b"connection set-up"))
    cluster.run()
    assert recv(conn_b)["message"].counter == 0
    started: list[str] = []
    start_process = Simulator.process

    def recording(self, generator):
        started.append(generator.__qualname__)
        return start_process(self, generator)

    monkeypatch.setattr(Simulator, "process", recording)
    profiler = Profiler.attach(sim)
    pending: deque = deque()
    for index in range(messages):
        if len(pending) == window:
            cluster.run(pending.popleft())
        pending.append(auth_send(conn_a, index.to_bytes(8, "big") + b"x" * 56))
    while pending:
        cluster.run(pending.popleft())
    cluster.run()

    events = sum(row["events"] for row in profiler.sim_report().values())
    assert events / messages <= 18.1
    # Per-message stages are scheduled completions; only actors are
    # processes, and the one actor that restarts is the retransmit timer.
    assert set(started) <= {"RoceKernel._retransmit_loop"}
    received = []
    while (item := recv(conn_b)) is not None:
        received.append(item["message"].counter)
    assert received == list(range(1, messages + 1))


# ----------------------------------------------------------------------
# Stage spans: same instants, same parents as the process-based path
# ----------------------------------------------------------------------
def test_one_traced_send_keeps_its_stage_instants_and_parents():
    cluster, conn_a, _ = _pair()
    hub = Telemetry.attach(cluster.sim)
    start = cluster.sim.now
    cluster.run(auth_send(conn_a, b"x" * 64))
    cluster.run()
    spans = {span.name: span for span in hub.spans.finished}
    by_id = {span.span_id: span.name for span in hub.spans.finished}
    observed = {
        name: (span.start_us - start, span.end_us - start,
               by_id.get(span.parent_id), span.labels.get("status"))
        for name, span in spans.items()
    }
    # Pinned at the parent of the PR that removed the tx processes.
    dma, hmac, acked = 0.5053333333333333, 7.481333333333334, 16.478133333333332
    assert observed == {
        "request.auth_send": (0.0, acked, None, None),
        "tnic.post": (0.0, 0.0, "request.auth_send", "ok"),
        "tnic.tx": (0.0, acked, "tnic.post", "ok"),
        "tnic.dma": (0.0, dma, "tnic.tx", None),
        "attest.hmac": (dma, hmac, "tnic.tx", None),
        "roce.tx": (hmac, acked, "tnic.tx", None),
        "roce.rx_verify": (8.497493333333335, 15.473493333333334, "tnic.tx", "ok"),
    }
