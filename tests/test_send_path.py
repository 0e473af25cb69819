"""The callback-chained send path: post → DMA → attest → wire → ACK.

Three contracts of the chain in ``repro.core.device`` (``_Send``) and
``repro.stack.rdma_lib`` (``RdmaLibrary.post``):

* every failure fails the returned event exactly once — nothing raises
  out of ``sim.run()``, nothing deadlocks, the next post goes through;
* a request carries the bytes it was posted with, however many posts
  share the staging ring before the simulator runs;
* a posted send has one completion event, handed down post → device →
  RoCE kernel; every layer's part in the completion is a callback on it;
* a send costs a bounded, host-independent number of scheduler events
  and starts no process;
* the Fig. 6 stage spans open and close at the instants they always did.
"""

from collections import deque

import pytest

from repro.api import Cluster, auth_send
from repro.api.ops import recv, rem_write
from repro.core.attestation import UnknownSessionError
from repro.net.fabric import NetworkFault
from repro.net.packet import RdmaOpcode
from repro.roce.transport import TransportError
from repro.sim.clock import Simulator
from repro.sim.events import Event
from repro.stack.memory import MemoryError_
from repro.stack.rdma_lib import WorkRequest
from repro.telemetry import Telemetry


def _pair():
    cluster = Cluster(["a", "b"], seed=0)
    conn_a, conn_b = cluster.connect("a", "b")
    cluster.run()
    return cluster, conn_a, conn_b


def _send_windowed(cluster, conn, messages, payload_bytes, window=16):
    """Post *messages* of *payload_bytes*, *window* outstanding, each
    starting with its index; returns the completion instants."""
    pending: deque = deque()
    instants = []
    for index in range(messages):
        if len(pending) == window:
            cluster.run(pending.popleft())
            instants.append(cluster.sim.now)
        pending.append(auth_send(
            conn, index.to_bytes(8, "big") + b"x" * (payload_bytes - 8)))
    while pending:
        cluster.run(pending.popleft())
        instants.append(cluster.sim.now)
    cluster.run()
    return instants


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
    return WorkRequest(RdmaOpcode.SEND, 9999, conn.stage(b"x" * 64), 64,
                       conn.tx_region.lkey)


def _request_unconnected_qp(cluster, conn):
    # Its own session: the payload is attested before the transport
    # refuses it, which spends a send counter.
    conn.node.device.install_session(55, b"k" * 32)
    fresh = conn.node.ibv_qp_conn(cluster["b"].ip, session_id=55)
    return WorkRequest(RdmaOpcode.SEND, fresh.qp_number, conn.stage(b"x" * 64), 64,
                       conn.tx_region.lkey)


def _request_uninstalled_session(cluster, conn):
    fresh = conn.node.ibv_qp_conn(cluster["b"].ip, session_id=777)
    conn.node.device.connect_qp(fresh.qp_number, 1)
    return WorkRequest(RdmaOpcode.SEND, fresh.qp_number, conn.stage(b"x" * 64), 64,
                       conn.tx_region.lkey)


def _request_unregistered_address(cluster, conn):
    # Outside the registered region its lkey names.
    return WorkRequest(RdmaOpcode.SEND, conn.qp_number, 0x10, 64, conn.tx_region.lkey)


def _count_failures(monkeypatch):
    """``{event: times fail() was called on it}`` from here on."""
    failures: dict = {}
    fail = Event.fail

    def counting(self, exception):
        failures[self] = failures.get(self, 0) + 1
        return fail(self, exception)

    monkeypatch.setattr(Event, "fail", counting)
    return failures


@pytest.mark.parametrize("build, error", [
    (_request_unknown_qp, KeyError),
    (_request_unconnected_qp, TransportError),
    (_request_uninstalled_session, UnknownSessionError),
    (_request_unregistered_address, MemoryError_),
])
def test_a_failed_post_fails_its_event_exactly_once(build, error, monkeypatch):
    cluster, conn_a, conn_b = _pair()
    rdma = conn_a.node.rdma
    failures = _count_failures(monkeypatch)
    failed = rdma.post(build(cluster, conn_a))
    seen = []
    failed.callbacks.append(lambda event: seen.append(event._exception))
    cluster.run()  # nothing raises out of the loop
    assert failed.processed and not failed.ok
    with pytest.raises(error):
        failed.value
    # One event, failed exactly once, by whichever layer refused the
    # request; the caller's callback saw it.
    assert failures == {failed: 1}
    assert len(seen) == 1 and isinstance(seen[0], error)
    # A following post goes through.
    after = auth_send(conn_a, b"after the failure")
    assert cluster.run(after).ok
    cluster.run()
    assert recv(conn_b)["payload"] == b"after the failure"
    assert failures == {failed: 1}


def test_every_failed_post_fails_only_its_own_event_once(monkeypatch):
    cluster, conn_a, _ = _pair()
    failures = _count_failures(monkeypatch)
    posted = []
    for _ in range(3):
        posted.append(conn_a.node.rdma.post(_request_unknown_qp(cluster, conn_a)))
        cluster.run()
        assert failures == {event: 1 for event in posted}


# ----------------------------------------------------------------------
# The staging ring: a request carries the bytes it was posted with
# ----------------------------------------------------------------------
def _distinct_payloads(count: int, size: int) -> list[bytes]:
    return [index.to_bytes(8, "big") * (size // 8) for index in range(count)]


def test_posts_that_wrap_the_staging_ring_deliver_the_posted_bytes():
    """300 x 16 KiB is 4.7 MiB through a 4 MiB ring, all posted before
    the simulator runs: the ring wraps onto slots whose requests are
    still queued at the device.  Used to deliver 44 messages with
    another message's bytes, attested and verified."""
    cluster, conn_a, conn_b = _pair()
    payloads = _distinct_payloads(300, 16 * 1024)
    completions = [auth_send(conn_a, payload) for payload in payloads]
    cluster.run()
    assert all(completion.ok for completion in completions)
    received = []
    while (item := recv(conn_b)) is not None:
        received.append(item["payload"])
    assert received == payloads


def test_rem_writes_that_wrap_the_staging_ring_write_the_posted_bytes():
    cluster, conn_a, conn_b = _pair()
    size = 16 * 1024
    slots = conn_a.remote_size // size
    payloads = _distinct_payloads(slots + 44, size)
    # The first `slots` writes fill the peer's window; the rest come
    # after the sender's ring has wrapped and rewrite the first 44.
    completions = [rem_write(conn_a, (index % slots) * size, payload)
                   for index, payload in enumerate(payloads)]
    cluster.run()
    assert all(completion.ok for completion in completions)
    written = []
    while (item := recv(conn_b)) is not None:  # places each WRITE
        written.append(item["payload"])
    assert written == payloads
    window = conn_b.node.rdma.memory_table
    expected = payloads[slots:] + payloads[44:slots]
    assert [window.dma_read(conn_a.remote_base + index * size, size, conn_a.remote_rkey)
            for index in range(slots)] == expected


def test_a_window_16_run_keeps_its_virtual_instants():
    """Reading the payload at the post moved no event: completion
    instants of 64 x 1 KiB, 16 outstanding, pinned at the parent of the
    PR that moved the read."""
    cluster, conn_a, _ = _pair()
    instants = _send_windowed(cluster, conn_a, 64, 1024)
    assert instants == sorted(instants)
    assert (instants[0], instants[15], instants[16], instants[-1],
            cluster.sim.now) == (
        55.99493333333334, 455.8349333333334, 482.49093333333343,
        1735.3229333333313, 1748.7309333333317)


def test_the_posted_event_is_the_one_the_roce_kernel_completes():
    cluster, conn_a, conn_b = _pair()
    roce = conn_a.node.device.roce
    completion = auth_send(conn_a, b"x" * 64)
    cluster.run(until=cluster.sim.now + 8.0)  # past DMA and HMAC: on the wire
    [(last_psn, held)] = roce.tables[conn_a.qp_number].completions
    assert held is completion and not completion.triggered
    entry = cluster.run(completion)
    assert entry.ok and entry.qp_number == conn_a.qp_number
    # A caller that brings no event gets a fresh one at every layer.
    assert cluster.run(conn_a.node.device.send(conn_a.qp_number, b"y")).ok


def test_retry_limit_fails_the_one_event_and_every_layer_sees_it(monkeypatch):
    fault = NetworkFault(drop_probability=1.0)
    cluster = Cluster(["a", "b"], fault=fault, seed=0)
    conn_a, conn_b = cluster.connect("a", "b")
    hub = Telemetry.attach(cluster.sim)
    failures = _count_failures(monkeypatch)
    completion = auth_send(conn_a, b"into the void")
    cluster.run()  # 25 retransmission rounds, then the transport gives up
    assert failures == {completion: 1}
    with pytest.raises(TransportError, match="retry limit exceeded"):
        completion.value
    status = {span.name: span.labels.get("status") for span in hub.spans.finished}
    assert status["tnic.tx"] == "error"          # device: span closed as failed
    assert "request.auth_send" in status         # api: root span closed
    # The next post goes through — on a fresh connection: the peer
    # never saw PSN 0, so this one stays broken (an RC QP in error).
    fault.drop_probability = 0.0
    fresh_a, fresh_b = cluster.connect("a", "b")
    assert cluster.run(auth_send(fresh_a, b"healed")).ok
    cluster.run()
    assert failures == {completion: 1}
    assert recv(fresh_b)["payload"] == b"healed"
    assert recv(conn_b) is None


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
def _budget(monkeypatch, payload_bytes, messages, window=16):
    """Post *messages* of *payload_bytes* a → b, *window* outstanding;
    returns scheduler entries (``Simulator._push`` and ``call_at``
    calls) per message and the names of the generators started as
    processes."""
    cluster, conn_a, conn_b = _pair()
    # The first data packet of a connection creates its delivery lane.
    cluster.run(auth_send(conn_a, b"connection set-up"))
    cluster.run()
    assert recv(conn_b)["message"].counter == 0
    started: list[str] = []
    start_process = Simulator.process

    def recording(self, generator):
        started.append(generator.__qualname__)
        return start_process(self, generator)

    pushes = [0]
    push, call_at = Simulator._push, Simulator.call_at

    def counting(self, when, event):
        pushes[0] += 1
        push(self, when, event)

    def counting_call(self, when, fn, arg):
        pushes[0] += 1
        call_at(self, when, fn, arg)

    monkeypatch.setattr(Simulator, "process", recording)
    monkeypatch.setattr(Simulator, "_push", counting)
    monkeypatch.setattr(Simulator, "call_at", counting_call)
    _send_windowed(cluster, conn_a, messages, payload_bytes, window)
    received = []
    while (item := recv(conn_b)) is not None:
        received.append(item["message"].counter)
    assert received == list(range(1, messages + 1))
    return pushes[0] / messages, started


def test_send_costs_at_most_18_events_and_starts_no_process(monkeypatch):
    """(Named for PR 14's budget; the receive pipeline halved it.)
    Wire 4, DMA 1, HMAC 2, completion 1; the post itself files none.
    Per-message stages are scheduled completions on both nodes, and so
    is the retransmission timer: one entry per 200 µs of traffic."""
    per_message, started = _budget(monkeypatch, 64, messages=200)
    assert per_message <= 8.1
    assert started == []


def test_a_16_kib_send_costs_at_most_29_5_events(monkeypatch):
    """(Named for the budget while the timer resent three packets per
    message on a loss-free wire.)  Wire 10 — four segments and the ACK,
    two hops each — DMA 1, HMAC 2, completion 1, and at most one timer
    entry."""
    per_message, started = _budget(monkeypatch, 16 * 1024, messages=100)
    assert per_message <= 15.1
    assert started == []


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
