"""Stations: a replica serves its messages one job at a time, in the
order they were sent to it.

A station files a job's first stage from the send (or when the job
before it ends), never from an arrival event, so a tie shuffle cannot
reorder two messages of one channel: ``perturb_ties`` moves only
same-instant events, and a station's order is its submission order.
"""

from __future__ import annotations

import pytest

from repro.bench import kv_workload
from repro.sim import Simulator
from repro.sim.latency import SYSTEM_NET_HOP_US
from repro.systems import bft as bft_module
from repro.systems.bft import BftCounter
from repro.systems.bft_viewchange import ViewChangeBftCounter
from repro.systems.chain import ChainReplication
from repro.systems.common import EmulatedNetwork, Station

SEEDS = [None, *range(1, 9)]


class _OneStage(Station):
    """Each message is one stage of *stage_us*, recorded when it
    completes."""

    def __init__(self, network: EmulatedNetwork, name: str,
                 stage_us: float = 1.0) -> None:
        super().__init__(network, name)
        self.stage_us = stage_us
        self.served: list[tuple[float, str]] = []

    def start(self, message, start: float) -> None:
        self.sim.call_at(start + self.stage_us, self._served, message)

    def _served(self, message) -> None:
        self.served.append((self.sim.now, message))
        self.next()


def _serve_two(perturb_seed):
    sim = Simulator()
    network = EmulatedNetwork(sim)
    node = _OneStage(network, "node")
    if perturb_seed is not None:
        sim.perturb_ties(perturb_seed)
    network.send("node", "first")
    network.send("node", "second")
    sim.run()
    return node.served


@pytest.mark.parametrize("perturb_seed", SEEDS)
def test_two_same_instant_sends_are_served_in_send_order(perturb_seed):
    # Both arrive one hop later; the second starts when the first ends.
    assert _serve_two(perturb_seed) == [
        (SYSTEM_NET_HOP_US + 1.0, "first"),
        (SYSTEM_NET_HOP_US + 1.0 + 1.0, "second"),
    ]


def _bft_outcome(perturb_seed, led):
    """Depth 3: the client sends three requests to the leader at once;
    *led* records the order the leader takes them up in."""
    led.clear()
    system = BftCounter("tnic", f=1, batch=2, seed=3)
    if perturb_seed is not None:
        system.sim.perturb_ties(perturb_seed)
    metrics = system.run_workload(12, pipeline_depth=3)
    assert not system.aborted and led == list(range(12))
    return metrics.to_dict(), {
        name: (replica.counter, sorted(replica.applied_batches),
               replica.simulated, replica.detected_faults)
        for name, replica in system.replicas.items()
    }


def _chain_outcome(perturb_seed):
    """Quorum reads: each get is broadcast to every node at once."""
    system = ChainReplication("tnic", chain_length=3, seed=5)
    if perturb_seed is not None:
        system.sim.perturb_ties(perturb_seed)
    requests = kv_workload(20, read_fraction=0.5, value_bytes=60, seed=7)
    metrics = system.run_workload(requests, read_mode="quorum")
    assert not system.aborted
    return metrics.to_dict(), {
        name: (node.store, node.commit_index, node.detected_faults)
        for name, node in system.nodes.items()
    }


def test_pipelined_bft_ends_identical_under_tie_shuffles(monkeypatch):
    """The leader orders the three same-instant requests as sent, and
    every shuffled run ends with the FIFO run's state and metrics."""
    led = []
    lead = bft_module._Replica._lead

    def recording(self, request, start):
        led.append(request.batch_id)
        lead(self, request, start)

    monkeypatch.setattr(bft_module._Replica, "_lead", recording)
    fifo = _bft_outcome(None, led)
    for seed in range(1, 9):
        assert _bft_outcome(seed, led) == fifo, f"perturb seed {seed}"


def test_chain_quorum_reads_end_identical_under_tie_shuffles():
    fifo = _chain_outcome(None)
    for seed in range(1, 9):
        assert _chain_outcome(seed) == fifo, f"perturb seed {seed}"


def test_coincident_checks_run_in_the_order_they_were_filed():
    """Known deviation from the process model, pinned at the station's
    value.  AMD-sev at its deterministic 30 µs lower bound makes checks
    of different replicas complete at one instant.  A station files a
    job's first check from the send or when the job before it ends; a
    process filed it on arrival, in the hop's entry.  At depth 2 the
    leader's first-ack reply now follows the followers' checks at such
    an instant, and latencies move (the process model read elapsed
    1046.56 µs, mean 198.538, p50 199.42).  Final state is unchanged;
    every committed figure (``BENCH_fig10`` runs AMD-sev at depth 4) is
    identical."""
    system = BftCounter("amd-sev", f=1, batch=1, seed=3)
    assert system.run_workload(10, pipeline_depth=2).to_dict() == {
        "committed": 10, "elapsed_us": 1078.56,
        "throughput_ops": 9271.621421, "mean_latency_us": 204.938,
        "p50_latency_us": 215.42, "p99_latency_us": 231.42,
    }
    assert [replica.counter for replica in system.replicas.values()] == [10] * 3


def test_a_vote_that_arrives_as_a_watchdog_falls_due_goes_first():
    """Known deviation from the process model, pinned at the station's
    value.  A view-change watchdog joins its replica's queue as a
    message sent one hop before it is due, so it takes its place among
    the PoEs and votes in flight.  AMD-sev's deterministic latencies can
    make a peer's vote arrive at the very instant a watchdog falls due.
    The process model's watchdog timeout was filed when armed, before
    the vote's hop, so it took the watchdog first; the station took the
    vote first, because the attest whose completion sends it was filed
    before the watchdog was armed.  Of 432 view-change runs (seeds 0-3,
    f 1-2, no, r0 or r1 silent, watchdogs 30-400 µs, three providers)
    12 differ, every one AMD-sev at 45 µs.  In this one the order
    decides whether the replicas that applied every batch ever vote to
    leave view 5, whose leader r0 is silent: they do not, and the run
    aborts; the process model committed all 6 batches in 1367.71 µs,
    at view 7 everywhere."""
    system = ViewChangeBftCounter("amd-sev", f=2, seed=0,
                                  silent_replicas={"r0"}, watchdog_us=45.0)
    metrics = system.run_workload(6, timeout_us=20_000.0)
    assert system.aborted
    assert metrics.to_dict() == {
        "committed": 5, "elapsed_us": 20896.44,
        "throughput_ops": 239.275207, "mean_latency_us": 179.288,
        "p50_latency_us": 166.155, "p99_latency_us": 289.35,
    }
    assert system.current_views() == {
        "r0": 0, "r1": 5, "r2": 5, "r3": 5, "r4": 5}
