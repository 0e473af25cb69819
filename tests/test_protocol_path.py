"""The protocol path pays for its stages, not its plumbing.

Five contracts of the per-message path:

* ``Store.get_until`` is observably the ``get`` / ``any_of`` /
  ``timeout`` / ``cancel_get`` idiom it replaced (kept below as the
  reference), minus the timers that idiom left behind;
* a fault-free run leaves at most one scheduled entry per client once
  its stragglers have drained;
* the exact scheduler-event budget of a BFT, a chain-KV, a Raft, a
  TEEs-CR and a PeerReview request: hops, timed checks, attests and
  served completions, nothing else;
* a 64 B trusted send keeps its scheduler budget and posts with one
  REG burst, no raised lookup and no per-message counter record;
* the scheduler's pending set stays a few dozen entries deep on the
  shapes the paper's systems run.
"""

from collections import deque

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.api import Cluster, auth_send
from repro.bench.workload import kv_workload
from repro.core import counters as counters_module
from repro.sim import TIMED_OUT, Simulator, Store
from repro.sim.events import AnyOf
from repro.stack.memory import MemoryError_
from repro.stack.regs import MappedRegsPage
from repro.systems.bft import BftCounter
from repro.systems.bft_viewchange import ViewChangeBftCounter
from repro.systems.chain import ChainReplication
from repro.systems.cr_cft import TeeChainReplication
from repro.systems.peer_review import PeerReviewSystem
from repro.systems.raft import TeeRaft


# ----------------------------------------------------------------------
# Deadline receive vs. the idiom it replaced
# ----------------------------------------------------------------------
def _reference_receive(sim, store, deadline, deadlines):
    """The receive-with-timeout idiom as the five call sites had it."""
    deadlines.append(deadline)
    remaining = deadline - sim.now
    if remaining <= 0:
        return TIMED_OUT
    get_event = store.get()
    winner = yield sim.any_of([get_event, sim.timeout(remaining)])
    if get_event not in winner:
        store.cancel_get(get_event)
        return TIMED_OUT
    return winner[get_event]


def _deadline_receive(sim, store, deadline, deadlines):
    return (yield store.get_until(deadline))


def _run_schedule(receive, puts, consumers):
    """One producer putting ``0, 1, 2...`` after each gap of *puts* and
    one consumer process per entry of *consumers*, each a list of
    ``(idle, patience)``: stay idle, then receive with the deadline
    ``now + patience``.  Returns what every consumer saw as
    ``[(instant, item | TIMED_OUT)]``, the put instants and the
    deadlines asked for."""
    sim = Simulator()
    store = Store(sim)
    put_instants, deadlines = [], []
    seen = [[] for _ in consumers]

    def producer():
        for item, gap in enumerate(puts):
            yield sim.timeout(gap)
            put_instants.append(sim.now)
            store.put(item)

    def consumer(index, waits):
        for idle, patience in waits:
            yield sim.timeout(idle)
            item = yield from receive(sim, store, sim.now + patience, deadlines)
            seen[index].append((sim.now, item))

    sim.process(producer())
    for index, waits in enumerate(consumers):
        sim.process(consumer(index, waits))
    sim.run()
    return seen, put_instants, deadlines, store


# Durations on a 1/8 µs grid: every instant is exact, so the reference's
# relative ``timeout(deadline - now)`` fires on the deadline itself.
_ticks = st.integers(min_value=0, max_value=96).map(lambda n: n / 8)
_waits = st.lists(st.tuples(_ticks, _ticks), min_size=1, max_size=12)


@settings(max_examples=300, deadline=None)
@given(puts=st.lists(_ticks, max_size=20),
       consumers=st.lists(_waits, min_size=1, max_size=3))
def test_get_until_matches_the_any_of_idiom(puts, consumers):
    want, put_instants, deadlines, _ = _run_schedule(
        _reference_receive, puts, consumers)
    # A put landing exactly on a deadline goes to whichever of the two
    # events was scheduled first; the lazily filed timer does not keep
    # that order, and no caller may depend on it.
    assume(not set(put_instants) & set(deadlines))
    got, _, _, store = _run_schedule(_deadline_receive, puts, consumers)
    assert got == want
    assert not store._getters  # no getter left behind to swallow a put


def test_served_getters_share_one_timer_and_expired_ones_leave():
    sim = Simulator()
    store = Store(sim)
    timers = []
    push = sim._push

    def recording(when, event):
        if event.callbacks == [store._expire]:
            timers.append(when)
        push(when, event)

    sim._push = recording

    def consumer():
        for deadline in (100.0, 150.0, 150.0):
            assert (yield store.get_until(deadline)) == "item"
        assert (yield store.get_until(160.0)) is TIMED_OUT
        assert sim.now == 160.0
        assert (yield store.get_until(160.0)) is TIMED_OUT  # already past

    def producer():
        for _ in range(3):
            yield sim.timeout(10.0)
            store.put("item")

    done = sim.process(consumer())
    sim.process(producer())
    sim.run(done)
    # One timer at the first deadline, re-armed when it fires early.
    assert timers == [100.0, 160.0]
    assert not store._getters
    store.put("late")
    assert len(store) == 1
    assert store.get().value == "late"


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
    pushes = [0]
    push = Simulator._push

    def counting(self, when, event):
        pushes[0] += 1
        push(self, when, event)

    conditions = []
    construct = AnyOf.__init__

    def recording(self, sim, events):
        conditions.append(self)
        construct(self, sim, events)

    monkeypatch.setattr(Simulator, "_push", counting)
    monkeypatch.setattr(AnyOf, "__init__", recording)
    run()
    assert not conditions  # a wait with a deadline is one receive
    return pushes[0] / requests


# Every scheduler entry of a request is a physical stage — a network
# hop, a timed authentication check, an attest.  A receiver woken by an
# event of its own would show up here as one more entry per hop.  Every
# replica is a station: a message's arrival is no entry, its first
# stage is filed from the send, and only a client's inbox still pays a
# hop.
def test_bft_request_costs_at_most_12_scheduler_events(monkeypatch):
    # 6 checks + 3 attests + the client's 3 hops (measured 12.005).
    system = BftCounter("tnic", f=1, seed=0)
    per_request = _pushes_per_request(
        monkeypatch, lambda: system.run_workload(200, pipeline_depth=4), 200)
    assert system.metrics.committed == 200
    assert per_request <= 12.1


def test_chain_request_costs_at_most_9_scheduler_events(monkeypatch):
    # 3 checks + 3 attests + the client's 3 hops (measured 9.015).
    system = ChainReplication("tnic", seed=0)
    requests = kv_workload(200, read_fraction=0.5, seed=0)
    per_request = _pushes_per_request(
        monkeypatch, lambda: system.run_workload(requests), len(requests))
    assert system.metrics.committed == 200
    assert per_request <= 9.1


# A TEEs-Raft or TEEs-CR replica is one entry per message it handles:
# its one stage, the TEE service, with the hop folded in.
def test_raft_request_costs_at_most_6_scheduler_events(monkeypatch):
    # 5 TEE services + the client's hop; the bypass control has no
    # checks or attests.
    system = TeeRaft(nodes=3)
    per_request = _pushes_per_request(
        monkeypatch, lambda: system.run_workload(200), 200)
    assert system.metrics.committed == 200
    assert system.logs_consistent()
    assert per_request <= 6.1  # measured 6.01


def test_cft_chain_request_costs_at_most_4_scheduler_events(monkeypatch):
    # 3 TEE services (head, middle, tail) + the client's hop.
    system = TeeChainReplication(chain_length=3)
    requests = kv_workload(200, read_fraction=0.5, seed=0)
    per_request = _pushes_per_request(
        monkeypatch, lambda: system.run_workload(requests), len(requests))
    assert system.metrics.committed == 200
    assert system.stores_consistent()
    assert per_request <= 4.1


def test_peer_review_chunk_costs_at_most_10_scheduler_events(monkeypatch):
    # The 2 acks' hops to the source's inbox + 4 checks + 3 attests +
    # 1 audit (measured 10.015).
    system = PeerReviewSystem("tnic", audit=True, seed=0)
    per_request = _pushes_per_request(
        monkeypatch, lambda: system.run_workload(200), 200)
    assert system.metrics.committed == 200
    assert not system.detected_faults()
    assert per_request <= 10.1


def test_view_change_batch_costs_at_most_8_scheduler_events(monkeypatch):
    # The leader's attest + 2 follower checks + 2 watchdogs + the
    # client's 3 hops (measured 8.015).
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
    its physical stages, one REG burst (no single-register store), a
    lookup that raises nothing and no counter record after a session's
    first."""
    messages = 200
    cluster, conn_a = _send_pair()  # set-up's register stores go uncounted
    built = {"MemoryError_": 0, "write_u64": 0, "_SessionCounters": 0}

    raise_init = MemoryError_.__init__

    def counting_error(self, *args):
        built["MemoryError_"] += 1
        raise_init(self, *args)

    store = MappedRegsPage.write_u64

    def counting_store(self, offset, value):
        built["write_u64"] += 1
        store(self, offset, value)

    record = counters_module._SessionCounters

    def counting_record():
        built["_SessionCounters"] += 1
        return record()

    monkeypatch.setattr(MemoryError_, "__init__", counting_error)
    monkeypatch.setattr(MappedRegsPage, "write_u64", counting_store)
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
    assert built["write_u64"] == 0
    assert built["_SessionCounters"] == sessions == 2


# ----------------------------------------------------------------------
# Traffic shape: the pending set is shallow
# ----------------------------------------------------------------------


def test_the_pending_set_stays_shallow_on_the_paper_workloads(monkeypatch):
    """The scheduler is one binary heap because closed-loop clients keep
    the pending set tiny (measured max 27, on 16 KiB sends).  If a
    workload ever goes deep, this trips and the heap-vs-calendar
    question reopens with data (docs/performance.md "Layer 1")."""
    deepest = [0]
    push = Simulator._push

    def sampling(self, when, event):
        push(self, when, event)
        deepest[0] = max(deepest[0], len(self._heap))

    monkeypatch.setattr(Simulator, "_push", sampling)
    BftCounter("tnic", f=1, seed=0).run_workload(100, pipeline_depth=4)
    ChainReplication("tnic", seed=0).run_workload(
        kv_workload(100, read_fraction=0.5, seed=0))
    TeeRaft(nodes=3).run_workload(100)
    _window_16_send(*_send_pair(), 48, b"x" * 16384)
    assert 0 < deepest[0] <= 64
