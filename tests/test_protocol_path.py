"""The protocol path pays for its stages, not its plumbing.

Seven contracts of the per-message path:

* a client waits with at most one deadline timer in flight: served
  waits share it, and an expired wait leaves nothing behind;
* no run constructs a process, and a client keeps one deadline timer
  however many requests it makes;
* a fault-free run leaves at most one scheduled entry per client once
  its stragglers have drained;
* the exact scheduler-event budget of a BFT, a chain-KV, a Raft, a
  TEEs-CR and a PeerReview request: hops, timed checks, attests and
  served completions, nothing else;
* a 64 B trusted send keeps its scheduler budget and posts with no
  raised lookup and no per-message counter record;
* its datapath stages are calls: the only event a message files is
  the completion its poster waits on;
* the scheduler's pending set stays a few dozen entries deep on the
  shapes the paper's systems run.
"""

from collections import deque
from types import SimpleNamespace

import pytest

from repro.api import Cluster, auth_send
from repro.bench.workload import kv_workload
from repro.core import counters as counters_module
from repro.sim import Process, Simulator
from repro.sim.events import AnyOf
from repro.sim.latency import SYSTEM_NET_HOP_US
from repro.stack.memory import MemoryError_
from repro.systems.bft import BftCounter, ByzantineBehaviour
from repro.systems.bft_viewchange import ViewChangeBftCounter
from repro.systems.chain import ChainReplication
from repro.systems.common import Client, EmulatedNetwork
from repro.systems.cr_cft import TeeChainReplication
from repro.systems.peer_review import PeerReviewBehaviour, PeerReviewSystem
from repro.systems.raft import TeeRaft
from repro.telemetry.profiler import Profiler


# ----------------------------------------------------------------------
# A client's deadline: one timer in flight
# ----------------------------------------------------------------------
class _Waiter(Client):
    """Waits for one reply per deadline of *deadlines*, in turn."""

    def __init__(self, network, deadlines):
        super().__init__(SimpleNamespace(network=network), "client")
        self.deadlines = list(deadlines)
        self.seen = []

    def received(self, message, parent):
        self.seen.append((self.sim.now, message))
        if self.deadline is not None:
            self._next()

    def expired(self):
        self.seen.append((self.sim.now, "expired"))
        self._next()

    def _next(self, _event=None):
        if self.deadlines:
            self.wait(self.deadlines.pop(0))
        else:
            self.finish()


def test_served_waits_share_one_timer_and_expired_ones_leave():
    sim = Simulator()
    network = EmulatedNetwork(sim)
    client = _Waiter(network, (100.0, 150.0, 150.0, 160.0, 160.0))
    timers = []
    call_at = sim.call_at

    def recording(when, fn, arg):
        if fn == client._expire:
            timers.append(when)
        call_at(when, fn, arg)

    sim.call_at = recording
    for instant in (10.0, 20.0, 30.0):
        sim.delayed_call(instant, lambda: network.send("client", "item"))
    client.run(client._next)
    assert client.seen[:3] == [(instant + SYSTEM_NET_HOP_US, "item")
                               for instant in (10.0, 20.0, 30.0)]
    # The fourth wait times out on its deadline; the fifth, asked for
    # once that deadline has passed, expires at once.
    assert client.seen[3:] == [(160.0, "expired"), (160.0, "expired")]
    # One timer at the first deadline, re-armed when it fires early.
    assert timers == [100.0, 160.0]
    assert client.deadline is None
    network.send("client", "late")  # a reply with no wait in progress
    sim.run()
    assert client.seen[-1] == (sim.now, "late") and not sim._heap


# ----------------------------------------------------------------------
# No client process; one client timer however long the run
# ----------------------------------------------------------------------
def _bft(requests):
    system = BftCounter("tnic", f=1, seed=0)
    system.run_workload(requests, pipeline_depth=4)
    system.read_counter()
    return system


def _bft_byzantine_leader(requests):
    system = BftCounter("tnic", f=1, seed=0, behaviours={
        "r0": ByzantineBehaviour(equivocate=True)})
    system.run_workload(requests, timeout_us=5_000.0)
    assert system.aborted
    return system


def _chain(read_mode):
    def run(requests):
        system = ChainReplication("tnic", seed=0)
        system.run_workload(kv_workload(requests, read_fraction=0.5, seed=0),
                            read_mode=read_mode)
        return system
    return run


def _view_change(requests):
    system = ViewChangeBftCounter("tnic", seed=0)
    system.run_workload(requests)
    return system


def _raft(requests):
    system = TeeRaft(nodes=3, pipeline_depth=4)
    system.run_workload(requests)
    return system


def _cr(requests):
    system = TeeChainReplication(chain_length=3)
    system.run_workload(kv_workload(requests, read_fraction=0.5, seed=0))
    return system


def _peer_review(behaviour):
    def run(requests):
        system = PeerReviewSystem("tnic", audit=True, seed=0,
                                  behaviour=behaviour, ack_timeout_us=2_000.0)
        system.run_workload(requests)
        return system
    return run


@pytest.mark.parametrize("run", [
    _bft, _bft_byzantine_leader, _chain("chain"), _chain("quorum"),
    _view_change, _raft, _cr, _peer_review(None),
    _peer_review(PeerReviewBehaviour(silent_child=True)),
], ids=["bft", "bft-byzantine-leader", "chain", "chain-quorum-reads",
        "view-change", "raft", "cr", "peer-review", "peer-review-silent-child"])
def test_no_client_process_and_one_client_timer(monkeypatch, run):
    constructed = []
    construct = Process.__init__

    def counting(self, sim, generator):
        constructed.append(generator)
        construct(self, sim, generator)

    monkeypatch.setattr(Process, "__init__", counting)
    short, long = run(50), run(500)
    assert constructed == []
    # A timer per request would leave up to one entry per request
    # behind; the client keeps one in flight however many it made.
    assert len(short.sim._heap) == len(long.sim._heap)


# ----------------------------------------------------------------------
# No timer per reply is left behind
# ----------------------------------------------------------------------
def _scheduled_entries(sim):
    return len(sim._heap)


def test_a_finished_run_holds_at_most_one_entry_per_client():
    bft = BftCounter("tnic", f=1, seed=0)
    bft.run_workload(200, pipeline_depth=4)
    chain = ChainReplication("tnic", seed=0)
    chain.run_workload(kv_workload(200, read_fraction=0.5, seed=0))
    for system in (bft, chain):
        assert not system.aborted
        sim = system.sim
        sim.run(until=sim.now + 1_000.0)  # straggler replies and forwards
        assert _scheduled_entries(sim) <= 1


# ----------------------------------------------------------------------
# Event budget: exact and host-independent
# ----------------------------------------------------------------------
def _pushes_per_request(monkeypatch, run, requests):
    """Scheduler entries per request: events filed (``_push``) plus
    calls (``call_at``)."""
    pushes = [0]
    push, call_at = Simulator._push, Simulator.call_at

    def counting(self, when, event):
        pushes[0] += 1
        push(self, when, event)

    def counting_call(self, when, fn, arg):
        pushes[0] += 1
        call_at(self, when, fn, arg)

    conditions = []
    construct = AnyOf.__init__

    def recording(self, sim, events):
        conditions.append(self)
        construct(self, sim, events)

    monkeypatch.setattr(Simulator, "_push", counting)
    monkeypatch.setattr(Simulator, "call_at", counting_call)
    monkeypatch.setattr(AnyOf, "__init__", recording)
    run()
    assert not conditions  # a wait with a deadline is one receive
    return pushes[0] / requests


# Every scheduler entry of a request is a physical stage — a network
# hop, a timed authentication check, an attest.  A receiver woken by an
# event of its own would show up here as one more entry per hop.  Every
# replica is a station: a message's arrival is no entry, its first
# stage is filed from the send.  Only a client pays a reply's arrival,
# a stage of its own filed from the send.
def test_bft_request_costs_at_most_12_scheduler_events(monkeypatch):
    # 6 checks + 3 attests + the client's 3 replies (measured 12.005).
    system = BftCounter("tnic", f=1, seed=0)
    per_request = _pushes_per_request(
        monkeypatch, lambda: system.run_workload(200, pipeline_depth=4), 200)
    assert system.metrics.committed == 200
    assert per_request <= 12.1


def test_chain_request_costs_at_most_9_scheduler_events(monkeypatch):
    # 3 checks + 3 attests + the client's 3 replies (measured 9.015).
    system = ChainReplication("tnic", seed=0)
    requests = kv_workload(200, read_fraction=0.5, seed=0)
    per_request = _pushes_per_request(
        monkeypatch, lambda: system.run_workload(requests), len(requests))
    assert system.metrics.committed == 200
    assert per_request <= 9.1


# A TEEs-Raft or TEEs-CR replica is one entry per message it handles:
# its one stage, the TEE service, with the hop folded in.
def test_raft_request_costs_at_most_6_scheduler_events(monkeypatch):
    # 5 TEE services + the client's reply; the bypass control has no
    # checks or attests.
    system = TeeRaft(nodes=3)
    per_request = _pushes_per_request(
        monkeypatch, lambda: system.run_workload(200), 200)
    assert system.metrics.committed == 200
    assert system.logs_consistent()
    assert per_request <= 6.1  # measured 6.01


def test_cft_chain_request_costs_at_most_4_scheduler_events(monkeypatch):
    # 3 TEE services (head, middle, tail) + the client's reply.
    system = TeeChainReplication(chain_length=3)
    requests = kv_workload(200, read_fraction=0.5, seed=0)
    per_request = _pushes_per_request(
        monkeypatch, lambda: system.run_workload(requests), len(requests))
    assert system.metrics.committed == 200
    assert system.stores_consistent()
    assert per_request <= 4.1


def test_peer_review_chunk_costs_at_most_8_scheduler_events(monkeypatch):
    # 4 checks + 3 attests + 1 audit (measured 8.015): the source is a
    # station, so an ack's check is filed from its send and its arrival
    # is no entry.
    system = PeerReviewSystem("tnic", audit=True, seed=0)
    per_request = _pushes_per_request(
        monkeypatch, lambda: system.run_workload(200), 200)
    assert system.metrics.committed == 200
    assert not system.detected_faults()
    assert per_request <= 8.1


def test_view_change_batch_costs_at_most_8_scheduler_events(monkeypatch):
    # The leader's attest + 2 follower checks + 2 watchdogs + the
    # client's 3 replies (measured 8.015).
    system = ViewChangeBftCounter("tnic", seed=0)
    per_request = _pushes_per_request(
        monkeypatch, lambda: system.run_workload(200), 200)
    assert system.metrics.committed == 200
    assert set(system.current_views().values()) == {0}
    assert per_request <= 8.1


# ----------------------------------------------------------------------
# The trusted send: stages, and no host plumbing per message
# ----------------------------------------------------------------------
def _send_pair():
    cluster = Cluster(["a", "b"], seed=0)
    conn_a, _conn_b = cluster.connect("a", "b")
    return cluster, conn_a


def _window_16_send(cluster, conn_a, messages, payload):
    """The e2e ``send_*`` driver: 16 sends outstanding, oldest first."""
    pending = deque()
    for _ in range(messages):
        if len(pending) == 16:
            cluster.run(pending.popleft())
        pending.append(auth_send(conn_a, payload))
    cluster.run()


def test_a_64b_send_pays_for_its_stages_not_host_plumbing(monkeypatch):
    """Per message of the ``send_small`` shape: the scheduler entries of
    its physical stages, a lookup that raises nothing and no counter
    record after a session's first."""
    messages = 200
    cluster, conn_a = _send_pair()
    built = {"MemoryError_": 0, "_SessionCounters": 0}

    raise_init = MemoryError_.__init__

    def counting_error(self, *args):
        built["MemoryError_"] += 1
        raise_init(self, *args)

    record = counters_module._SessionCounters

    def counting_record():
        built["_SessionCounters"] += 1
        return record()

    monkeypatch.setattr(MemoryError_, "__init__", counting_error)
    monkeypatch.setattr(counters_module, "_SessionCounters", counting_record)
    per_message = _pushes_per_request(
        monkeypatch,
        lambda: _window_16_send(cluster, conn_a, messages, b"x" * 64),
        messages)
    sessions = sum(len(node.device.attestation.counters._sessions)
                   for node in cluster.nodes.values())
    assert cluster["b"].device.attestation.verify_count == messages
    assert per_message <= 8.1  # measured 8.035
    assert built["MemoryError_"] == 0
    assert built["_SessionCounters"] == sessions == 2


def test_a_64b_send_files_one_event_the_completion():
    """The ``send_small`` shape, profiled: DMA, HMAC, serialisation, the
    hop and the receiver's verify are scheduled calls, so a message
    files one event, its API completion, out of the same total."""
    messages = 200
    cluster, conn_a = _send_pair()
    cluster.run()
    profiler = Profiler.attach(cluster.sim)
    _window_16_send(cluster, conn_a, messages, b"x" * 64)
    entries = profiler.events
    events = {key: n for key, n in entries.items()
              if not key.startswith("Call:")}
    assert events == {"Event:_Send._acked": messages}
    assert sum(events.values()) / messages <= 1.0
    # 2 MAC serialisations + 2 hops (data and ACK), the DMA, the attest,
    # the verify, the completion, and 7 retransmission-timer entries.
    assert sum(entries.values()) == 8 * messages + 7


# ----------------------------------------------------------------------
# Traffic shape: the pending set is shallow
# ----------------------------------------------------------------------


def test_the_pending_set_stays_shallow_on_the_paper_workloads(monkeypatch):
    """The scheduler is one binary heap because closed-loop clients keep
    the pending set tiny (measured max 27, on 16 KiB sends).  If a
    workload ever goes deep, this trips and the heap-vs-calendar
    question reopens with data (docs/performance.md "Layer 1")."""
    deepest = [0]
    push, call_at = Simulator._push, Simulator.call_at

    def sampling(self, when, event):
        push(self, when, event)
        deepest[0] = max(deepest[0], len(self._heap))

    def sampling_call(self, when, fn, arg):
        call_at(self, when, fn, arg)
        deepest[0] = max(deepest[0], len(self._heap))

    monkeypatch.setattr(Simulator, "_push", sampling)
    monkeypatch.setattr(Simulator, "call_at", sampling_call)
    BftCounter("tnic", f=1, seed=0).run_workload(100, pipeline_depth=4)
    ChainReplication("tnic", seed=0).run_workload(
        kv_workload(100, read_fraction=0.5, seed=0))
    TeeRaft(nodes=3).run_workload(100)
    _window_16_send(*_send_pair(), 48, b"x" * 16384)
    assert 0 < deepest[0] <= 64
