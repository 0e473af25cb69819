"""Tests for the TEE-hosted CFT baselines: TEEs-Raft and TEEs-CR (§8.3)."""

import pytest

from repro.bench.workload import kv_workload
from repro.systems.chain import ChainReplication, KvRequest
from repro.systems.cr_cft import TeeChainReplication
from repro.systems.bft import BftCounter
from repro.systems.raft import TeeRaft


# ---------------------------------------------------------------------------
# TEEs-Raft
# ---------------------------------------------------------------------------

def test_raft_commits_all_commands():
    raft = TeeRaft(nodes=3)
    metrics = raft.run_workload(commands=10)
    assert metrics.committed == 10
    assert raft.logs_consistent()
    leader = raft.nodes[raft.leader_name]
    assert leader.commit_index == 10
    assert leader.applied == [f"cmd{i}" for i in range(10)]


def test_raft_followers_replicate_leader_log():
    raft = TeeRaft(nodes=3)
    raft.run_workload(commands=5)
    leader_log = [e.command for e in raft.nodes[raft.leader_name].log]
    for name in raft.followers:
        follower_log = [e.command for e in raft.nodes[name].log]
        assert follower_log == leader_log


def test_raft_five_nodes():
    raft = TeeRaft(nodes=5)
    metrics = raft.run_workload(commands=4)
    assert metrics.committed == 4
    assert raft.logs_consistent()


def test_raft_pipeline_improves_throughput():
    serial = TeeRaft(nodes=3, pipeline_depth=1).run_workload(10)
    deep = TeeRaft(nodes=3, pipeline_depth=8).run_workload(10)
    assert deep.throughput_ops > 1.5 * serial.throughput_ops


def test_raft_node_count_validated():
    with pytest.raises(ValueError):
        TeeRaft(nodes=2)
    with pytest.raises(ValueError):
        TeeRaft(nodes=4)
    with pytest.raises(ValueError):
        TeeRaft(nodes=3, pipeline_depth=0)


def test_raft_beats_tnic_bft():
    """§8.3: 'TEE-Raft achieves approximately 2.5x higher throughput
    than TNIC-based BFT ... primarily due to Raft's one-phase
    commitment' — measured under pipelined load, where the BFT leader's
    per-request attestation work is the bottleneck."""
    raft = TeeRaft(nodes=3, pipeline_depth=8).run_workload(40)
    bft = BftCounter("tnic", batch=1).run_workload(40, pipeline_depth=8)
    ratio = raft.throughput_ops / bft.throughput_ops
    assert 1.5 <= ratio <= 4.0, f"ratio={ratio}"


# ---------------------------------------------------------------------------
# TEEs-CR
# ---------------------------------------------------------------------------

def puts(n):
    return [KvRequest("put", f"k{i}", f"v{i}") for i in range(n)]


def test_cft_chain_replicates_and_tail_replies():
    chain = TeeChainReplication(chain_length=3)
    metrics = chain.run_workload(puts(5))
    assert metrics.committed == 5
    assert chain.stores_consistent()
    assert chain.nodes["tail"].store == {f"k{i}": f"v{i}" for i in range(5)}


def test_cft_chain_length_validated():
    with pytest.raises(ValueError):
        TeeChainReplication(chain_length=1)


def test_cft_chain_beats_byzantine_chain():
    """§8.3: 'TEE-CR achieves 2x higher throughput than the TNIC-based
    CR' — same RTTs, fewer attestation-kernel invocations."""
    cft = TeeChainReplication(chain_length=3).run_workload(puts(8))
    bft = ChainReplication("tnic", chain_length=3).run_workload(puts(8))
    ratio = cft.throughput_ops / bft.throughput_ops
    assert 1.3 <= ratio <= 3.5, f"ratio={ratio}"


def test_raft_log_repair_after_lossy_isolation():
    """A follower whose traffic was *dropped* (crash/restart) is
    repaired by the leader's next_index walk-back: it ends with the
    full committed log after more commands flow."""
    raft = TeeRaft(nodes=3)
    raft.network.isolate({"n2"}, mode="drop")
    raft.run_workload(commands=3)
    assert raft.nodes["n2"].log == []  # missed everything
    raft.network.heal()
    raft.run_workload(commands=3)
    raft.sim.run()  # drain repair traffic
    n2_log = [e.command for e in raft.nodes["n2"].log]
    leader_log = [e.command for e in raft.nodes[raft.leader_name].log]
    assert n2_log == leader_log
    assert raft.logs_consistent()


def test_raft_commits_despite_one_lossy_follower():
    """Majority (leader + one follower) keeps committing while the
    third node's traffic is dropped."""
    raft = TeeRaft(nodes=3)
    raft.network.isolate({"n1"}, mode="drop")
    metrics = raft.run_workload(commands=4)
    assert metrics.committed == 4
    assert raft.network.dropped_messages > 0


# ---------------------------------------------------------------------------
# Replicas as stations: the virtual results, and per-channel FIFO
# ---------------------------------------------------------------------------

# ``metrics.to_dict()`` of each run as the process-per-replica model
# computed it (all but RAFT_DEPTH_16_500): a station completes each
# message at the instant the process did (hop, then TEE service, in
# arrival order).
RAFT_DEPTH_1_200 = {  # the e2e ``raft_cft`` shape
    "committed": 200, "elapsed_us": 14600.0, "throughput_ops": 13698.630137,
    "mean_latency_us": 73.0, "p50_latency_us": 73.0, "p99_latency_us": 73.0,
}
RAFT_DEPTH_8_40 = {  # the ``raft_vs_bft`` row of BENCH_tab04
    "committed": 40, "elapsed_us": 459.0, "throughput_ops": 87145.969499,
    "mean_latency_us": 87.6, "p50_latency_us": 86.0, "p99_latency_us": 115.0,
}
RAFT_DEPTH_8_200 = {
    "committed": 200, "elapsed_us": 2179.0, "throughput_ops": 91785.222579,
    "mean_latency_us": 86.32, "p50_latency_us": 86.0, "p99_latency_us": 109.0,
}
# Deeper pipelines tie a TEE-service completion with a client hop at
# one instant.  A station files a job's stage when the job starts (on
# the send when it is idle, else when the job before it ends); the
# process model filed the TEE timeout on arrival, and the earlier
# served-node model at send time, so the three run such ties in
# different orders.  This run is pinned at the station's own value:
# the process model ended it at 4552 us (mean latency 143.384) and the
# served-node model at 4555 us (143.408), all with the same final logs.
RAFT_DEPTH_16_500 = {
    "committed": 500, "elapsed_us": 4529.0, "throughput_ops": 110399.646721,
    "mean_latency_us": 143.374, "p50_latency_us": 144.0, "p99_latency_us": 149.0,
}
CR_KV_10 = {  # the ``cr_cft_vs_bft`` row of BENCH_tab04
    "committed": 10, "elapsed_us": 730.0, "throughput_ops": 13698.630137,
    "mean_latency_us": 73.0, "p50_latency_us": 73.0, "p99_latency_us": 73.0,
}


@pytest.mark.parametrize("depth, commands, expected", [
    (1, 200, RAFT_DEPTH_1_200),
    (8, 40, RAFT_DEPTH_8_40),
    (8, 200, RAFT_DEPTH_8_200),
    (16, 500, RAFT_DEPTH_16_500),
], ids=["depth1", "depth8-tab04", "depth8", "depth16-served"])
def test_raft_virtual_results_are_pinned(depth, commands, expected):
    raft = TeeRaft(nodes=3, pipeline_depth=depth)
    assert raft.run_workload(commands).to_dict() == expected
    assert raft.logs_consistent()


def test_cft_chain_virtual_results_are_pinned():
    chain = TeeChainReplication(chain_length=3)
    assert chain.run_workload(kv_workload(10, seed=2)).to_dict() == CR_KV_10
    assert chain.stores_consistent()


def _raft_outcome(perturb_seed):
    raft = TeeRaft(nodes=3, pipeline_depth=3)
    if perturb_seed is not None:
        raft.sim.perturb_ties(perturb_seed)
    assert raft.run_workload(30).committed == 30
    return {
        name: ([entry.command for entry in node.log], node.commit_index)
        for name, node in raft.nodes.items()
    }


def test_raft_channels_stay_fifo_under_tie_shuffles():
    """Three pipelined commands leave the client at one instant.  A
    station serves its messages in send order, so no tie order can make
    the leader log them out of send order, and every shuffled run ends
    where the FIFO run does."""
    fifo = _raft_outcome(None)
    assert fifo["n0"] == ([f"cmd{i}" for i in range(30)], 30)
    for seed in range(1, 9):
        assert _raft_outcome(seed) == fifo, f"perturb seed {seed}"
