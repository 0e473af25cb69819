"""Tests for the BFT replicated counter (Appendix C.3, Algorithm 3)."""

import pytest

from repro.systems.bft import (
    BftCounter,
    ByzantineBehaviour,
    ProofOfExecution,
    _encode_poe,
)


def test_happy_path_commits_all_batches():
    system = BftCounter(provider_name="tnic", f=1, batch=1)
    metrics = system.run_workload(batches=10)
    assert metrics.committed == 10
    assert not system.aborted
    # All replicas converge on the same counter value.
    values = {r.counter for r in system.replicas.values()}
    assert values == {10}
    assert system.detected_faults() == {}


def test_batching_multiplies_committed_increments():
    system = BftCounter(provider_name="tnic", f=1, batch=8)
    metrics = system.run_workload(batches=5)
    assert metrics.committed == 40
    values = {r.counter for r in system.replicas.values()}
    assert values == {40}


def test_throughput_improves_with_batching():
    """Fig 10: 'batching improves the throughput ... proportionally'."""
    t1 = BftCounter("tnic", batch=1).run_workload(batches=10).throughput_ops
    t8 = BftCounter("tnic", batch=8).run_workload(batches=10).throughput_ops
    t16 = BftCounter("tnic", batch=16).run_workload(batches=10).throughput_ops
    assert t8 > 3 * t1
    assert t16 > t8


def test_tnic_outperforms_tee_versions():
    """Fig 10: TNIC improves throughput vs SGX and AMD-sev ~4-6x."""
    results = {
        name: BftCounter(name, batch=1, seed=2).run_workload(batches=8)
        for name in ("tnic", "sgx", "amd-sev", "ssl-lib")
    }
    tnic = results["tnic"].throughput_ops
    assert tnic > 1.5 * results["sgx"].throughput_ops
    assert tnic > 1.5 * results["amd-sev"].throughput_ops
    # SSL-lib (no tamper-proofing, no emulated latency) is fastest.
    assert results["ssl-lib"].throughput_ops > tnic


def test_f2_cluster_runs():
    system = BftCounter(provider_name="tnic", f=2, batch=1)
    metrics = system.run_workload(batches=3)
    assert metrics.committed == 3
    assert len(system.replicas) == 5


def test_equivocating_leader_is_detected_and_blocks_commit():
    """A leader sending different statements to different followers is
    exposed by the per-sender counters."""
    system = BftCounter(
        "tnic",
        behaviours={"r0": ByzantineBehaviour(equivocate=True)},
    )
    system.run_workload(batches=1, timeout_us=20_000.0)
    assert system.aborted
    faults = system.detected_faults()
    assert any(
        "counter" in fault or "mismatch" in fault
        for fault_list in faults.values()
        for fault in fault_list
    )


def test_wrong_output_leader_detected_by_simulation():
    """Followers simulate the leader's action; a deviating output is
    caught (integrity property)."""
    system = BftCounter(
        "tnic",
        behaviours={"r0": ByzantineBehaviour(wrong_output=True)},
    )
    system.run_workload(batches=1, timeout_us=20_000.0)
    assert system.aborted
    faults = system.detected_faults()
    assert any(
        "output mismatch" in fault
        for fault_list in faults.values()
        for fault in fault_list
    )


def test_replaying_leader_blocks_commit():
    """Replaying a stale attested message fails the continuity check
    at every follower after the first delivery."""
    system = BftCounter(
        "tnic",
        behaviours={"r0": ByzantineBehaviour(replay=True)},
    )
    # First batch has no prior message to replay: committed normally.
    # Subsequent batches replay batch 0's PoE and never commit.
    system.run_workload(batches=3, timeout_us=20_000.0)
    assert system.aborted
    assert system.metrics.committed <= 1 * system.batch


def test_wrong_output_follower_is_exposed_and_outvoted():
    """A follower deviating from the specification fails the leader's
    validate_follower() and its peer's validate_sender(); the leader and
    the honest follower still make f+1 identical replies."""
    system = BftCounter(
        "tnic",
        behaviours={"r1": ByzantineBehaviour(wrong_output=True)},
    )
    metrics = system.run_workload(batches=4, timeout_us=20_000.0)
    assert not system.aborted
    assert metrics.committed == 4
    faults = system.detected_faults()
    assert set(faults) == {"r0", "r2"}
    for name in ("r0", "r2"):
        assert faults[name]
        assert all(f.startswith("output mismatch from r1")
                   for f in faults[name])
    assert system.replicas["r2"].counter == 4
    assert system.read_counter() == 4


@pytest.mark.parametrize("faulty", ["r1", "r2"])
@pytest.mark.parametrize("depth", [2, 4])
def test_a_pipelined_leader_replies_with_each_batchs_output(depth, faulty):
    """Under pipelining the leader has applied later batches by the
    time a batch's first ack arrives; its reply must carry that batch's
    output, or one wrong_output follower (within f = 1) leaves the
    honest leader and follower without f+1 identical replies."""
    system = BftCounter(
        "tnic", seed=3,
        behaviours={faulty: ByzantineBehaviour(wrong_output=True)},
    )
    replies = []
    send = system.network.send

    def recording(dst, message, parent=None):
        if dst == "client" and message.sender == "r0":
            replies.append((message.batch_id, message.output))
        send(dst, message, parent)

    system.network.send = recording
    metrics = system.run_workload(8, pipeline_depth=depth, timeout_us=50_000)
    assert not system.aborted
    assert metrics.committed == 8
    assert sorted(replies) == [(batch, batch + 1) for batch in range(8)]


def test_the_leader_forgets_a_batch_once_every_follower_acked():
    """The leader's per-batch ack sets live only until the last
    follower's ack: a long pipelined run leaves none behind."""
    system = BftCounter(seed=0)
    metrics = system.run_workload(3000, pipeline_depth=4)
    assert metrics.committed == 3000
    leader = system.replicas[system.leader_name]
    assert leader.acks_per_batch == {}


def test_parameter_validation():
    with pytest.raises(ValueError):
        BftCounter(f=0)
    with pytest.raises(ValueError):
        BftCounter(batch=0)


def test_latency_recorded_per_commit():
    system = BftCounter("tnic", batch=1)
    metrics = system.run_workload(batches=5)
    assert len(metrics.latencies_us) == 5
    assert metrics.mean_latency_us > 0
    assert metrics.percentile_latency_us(0.5) <= metrics.percentile_latency_us(0.99)


def test_quorum_read_returns_committed_counter():
    system = BftCounter("tnic", f=1, batch=2)
    system.run_workload(batches=3)
    assert system.read_counter() == 6


def test_quorum_read_tolerates_one_divergent_replica():
    """A single Byzantine replica reporting a wrong value cannot break
    the f+1 read quorum."""
    system = BftCounter("tnic", f=1, batch=1)
    system.run_workload(batches=2)
    system.replicas["r2"].counter = 999  # lies about its state
    assert system.read_counter() == 2


def test_quorum_read_times_out_beyond_tolerance():
    system = BftCounter("tnic", f=1, batch=1)
    system.run_workload(batches=1)
    system.replicas["r1"].counter = 500
    system.replicas["r2"].counter = 700
    import pytest as _pytest
    with _pytest.raises(TimeoutError):
        system.read_counter(timeout_us=5_000.0)


def test_a_poe_counts_only_from_its_senders_own_device():
    """Every provider holds every session key, so r1 can attest under
    r0's session on its own device.  The kernel MACs r1's device id in,
    and r2 refuses the PoE: it used to apply batch 99, which the leader
    never ordered, and later blame the honest r0 for a counter gap."""
    system = BftCounter(seed=3)
    r1 = system.replicas["r1"]
    attested = system.sim.event()
    r1.provider.attest(system.session_ids["r0"], _encode_poe(99, 5, 5),
                       attested.succeed)
    forged = system.sim.run(attested)
    system.network.send("r2", ProofOfExecution("r0", forged))
    system.sim.run(until=system.sim.now + 1_000.0)
    r2 = system.replicas["r2"]
    assert r2.counter == 0 and 99 not in r2.applied_batches
    assert r2.authenticators["r0"].anomalies == [
        f"wrong-device expected={system.providers['r0'].device_id} "
        f"got={r1.provider.device_id}"]
    # The honest leader's stream is untouched: r2 still commits with r0.
    metrics = system.run_workload(batches=3)
    assert metrics.committed == 3
    assert {r.counter for r in system.replicas.values()} == {3}


def test_a_poe_from_an_unknown_sender_is_a_fault_not_a_crash():
    """A PoE naming no replica cannot be checked: the receiver records
    it and goes on serving."""
    system = BftCounter("tnic", seed=0)
    # Made on r2's TNIC under r0's session, which r2 never sends on.
    forged = system.providers["r2"].kernel.attest(
        system.session_ids["r0"], _encode_poe(5, 1, 1))
    system.network.send("r1", ProofOfExecution("mallory", forged))
    metrics = system.run_workload(batches=3, timeout_us=5_000.0)
    assert not system.aborted and metrics.committed == 3
    assert system.detected_faults() == {
        "r1": ["PoE from unknown sender 'mallory'"]}
