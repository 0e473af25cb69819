"""Tests for Byzantine Chain Replication (Appendix C.4, Algorithm 4)."""

import pytest

from repro.systems.chain import (
    ChainBehaviour,
    ChainMessage,
    ChainReplication,
    KvRequest,
    _encode_output,
)


def puts(n):
    return [KvRequest("put", f"k{i}", f"v{i}") for i in range(n)]


def test_happy_path_replicates_puts_everywhere():
    system = ChainReplication("tnic", chain_length=3)
    metrics = system.run_workload(puts(5))
    assert metrics.committed == 5
    assert not system.aborted
    stores = [node.store for node in system.nodes.values()]
    assert all(store == {f"k{i}": f"v{i}" for i in range(5)} for store in stores)
    assert system.detected_faults() == {}


def test_gets_traverse_entire_chain():
    """BFT CR: reads cannot be served by the tail alone."""
    system = ChainReplication("tnic", chain_length=3)
    requests = [KvRequest("put", "x", "42"), KvRequest("get", "x")]
    metrics = system.run_workload(requests)
    assert metrics.committed == 2
    # Every node executed both operations.
    assert all(node.commit_index == 2 for node in system.nodes.values())


def test_get_missing_key():
    system = ChainReplication("tnic", chain_length=2)
    metrics = system.run_workload([KvRequest("get", "nope")])
    assert metrics.committed == 1


def test_corrupt_middle_detected_and_blocks_commit():
    """A middle node forging its output is exposed by the next node's
    chained validation; the client never sees N identical replies."""
    system = ChainReplication(
        "tnic", chain_length=3,
        behaviours={"mid0": ChainBehaviour(corrupt_output=True)},
    )
    system.run_workload(puts(1), timeout_us=30_000.0)
    assert system.aborted
    faults = system.detected_faults()
    assert "tail" in faults
    assert any("output" in fault for fault in faults["tail"])


def test_corrupt_head_detected_by_first_verifier():
    system = ChainReplication(
        "tnic", chain_length=3,
        behaviours={"head": ChainBehaviour(corrupt_output=True)},
    )
    system.run_workload(puts(1), timeout_us=30_000.0)
    assert system.aborted
    faults = system.detected_faults()
    assert "mid0" in faults


def test_drop_forward_blocks_commit():
    """A node silently dropping the chain message prevents commitment
    (clients detect non-responsiveness and would reconfigure)."""
    system = ChainReplication(
        "tnic", chain_length=3,
        behaviours={"mid0": ChainBehaviour(drop_forward=True)},
    )
    system.run_workload(puts(1), timeout_us=30_000.0)
    assert system.aborted


def test_longer_chains_supported():
    system = ChainReplication("tnic", chain_length=5)
    metrics = system.run_workload(puts(2))
    assert metrics.committed == 2
    assert len(system.nodes) == 5


def test_chain_length_validation():
    with pytest.raises(ValueError):
        ChainReplication(chain_length=1)


def test_tnic_faster_than_tee_versions():
    """Fig 11: TNIC is ~5x faster than SGX and ~3.4x than AMD-sev."""
    results = {
        name: ChainReplication(name, seed=1).run_workload(puts(6))
        for name in ("tnic", "sgx", "amd-sev", "ssl-lib", "ssl-server")
    }
    tnic = results["tnic"].throughput_ops
    assert tnic > 1.5 * results["sgx"].throughput_ops
    assert tnic > 1.3 * results["amd-sev"].throughput_ops
    assert results["ssl-lib"].throughput_ops > tnic
    # "it is 30% faster than SSL-server, which is not tamper-proof"
    assert tnic > results["ssl-server"].throughput_ops


def test_invalid_op_rejected():
    system = ChainReplication("tnic", chain_length=2)
    with pytest.raises(ValueError):
        system.nodes["head"].execute(KvRequest("del", "x"))


def test_quorum_reads_return_replicated_value():
    system = ChainReplication("tnic", chain_length=3)
    requests = [
        KvRequest("put", "k", "v1"),
        KvRequest("get", "k"),
        KvRequest("put", "k", "v2"),
        KvRequest("get", "k"),
    ]
    metrics = system.run_workload(requests, read_mode="quorum")
    assert metrics.committed == 4
    assert not system.aborted
    assert all(node.store == {"k": "v2"} for node in system.nodes.values())


def test_quorum_reads_are_faster_than_chain_reads():
    """The Appendix-C.4 trade-off: a broadcast round beats traversing
    the chain for read-heavy workloads."""
    reads = [KvRequest("put", "k", "v")] + [KvRequest("get", "k")] * 6
    chain_mode = ChainReplication("tnic", chain_length=3, seed=3)
    chain_metrics = chain_mode.run_workload(reads, read_mode="chain")
    quorum_mode = ChainReplication("tnic", chain_length=3, seed=3)
    quorum_metrics = quorum_mode.run_workload(reads, read_mode="quorum")
    assert quorum_metrics.throughput_ops > 1.2 * chain_metrics.throughput_ops


def test_quorum_read_detects_diverging_replica():
    """A replica serving stale/corrupt reads denies the quorum."""
    system = ChainReplication(
        "tnic", chain_length=3,
        behaviours={"mid0": ChainBehaviour(corrupt_output=True)},
    )
    system.run_workload([KvRequest("put", "k", "v")], timeout_us=30_000.0)
    # The write is blocked by mid0's corruption; reset to a clean system
    # and corrupt only the read path via direct store tampering.
    system = ChainReplication("tnic", chain_length=3)
    system.run_workload([KvRequest("put", "k", "v")])
    system.nodes["mid0"].store["k"] = "tampered"
    system.run_workload([KvRequest("get", "k")], read_mode="quorum",
                        timeout_us=20_000.0)
    assert system.aborted  # no unanimous quorum over the read value


def test_invalid_read_mode_rejected():
    system = ChainReplication("tnic", chain_length=2)
    with pytest.raises(ValueError, match="read_mode"):
        system.run_workload([KvRequest("get", "x")], read_mode="wild")


def test_a_chained_message_without_poes_is_refused():
    """validate() over zero PoEs used to pass vacuously: the tail
    executed, attested and replied to a message no predecessor sent."""
    system = ChainReplication("tnic", chain_length=3)
    system.network.send(
        "tail", ChainMessage(0, KvRequest("put", "k", "forged"), ()))
    system.sim.run()
    tail = system.nodes["tail"]
    assert (tail.store, tail.commit_index) == ({}, 0)
    [fault] = system.detected_faults()["tail"]
    assert fault.startswith("mid0: ")


def test_a_chained_message_must_carry_every_predecessors_poe():
    """A chain that carries only mid0's PoE, or both PoEs out of chain
    order, skips the head's place in validate()."""
    request = KvRequest("put", "k", "v")
    for keep in (("mid0",), ("mid0", "head")):
        system = ChainReplication("tnic", chain_length=3)
        poes = []
        for name in keep:
            attested = system.sim.event()
            system.providers[name].attest(
                system.session_ids[name], _encode_output(0, "ok:v", 1),
                attested.succeed)
            poes.append((name, system.sim.run(attested)))
        poes = tuple(poes)
        system.network.send("tail", ChainMessage(0, request, poes))
        system.sim.run()
        tail = system.nodes["tail"]
        assert (tail.store, tail.commit_index) == ({}, 0)
        [fault] = system.detected_faults()["tail"]
        assert fault.startswith("mid0: ")
