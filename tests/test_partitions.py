"""Partition / heal tests: safety under network splits (§C.3/§C.4).

"Even in the extreme case of a network partition or a faulty leader
that purposely excludes some healthy replicas ... when the network is
restored, these replicas will not accept any future messages unless
they receive all missed ones." — the reliable substrate holds traffic
toward isolated nodes and flushes it on heal, and the protocols resume
without losing or double-applying anything.
"""

import pytest

from repro.bench import kv_workload
from repro.systems.bft import BftCounter
from repro.systems.chain import ChainReplication, KvRequest
from repro.systems.common import EmulatedNetwork
from repro.sim import Simulator
from repro.sim.latency import SYSTEM_NET_HOP_US
from tests.test_station import _OneStage


def test_isolate_holds_and_heal_flushes():
    sim = Simulator()
    net = EmulatedNetwork(sim)
    served = _OneStage(net, "n", stage_us=0.0).served
    net.isolate({"n"})
    net.send("n", "held-1")
    net.send("n", "held-2")
    sim.run()
    assert len(served) == 0
    assert (net.held_messages, net.messages_sent) == (2, 0)
    net.heal()  # sends each held message once
    sim.run()
    assert len(served) == 2
    assert net.messages_sent == 2
    assert served[0][1] == "held-1"
    assert served[1][1] == "held-2"


def test_a_station_is_held_and_flushed_in_send_order():
    sim = Simulator()
    net = EmulatedNetwork(sim)
    served = _OneStage(net, "n", stage_us=3.0).served
    net.isolate({"n"})
    net.send("n", "held-1")
    net.send("n", "held-2")
    sim.run(until=100.0)
    assert served == [] and net.held_messages == 2
    net.heal()  # one hop from now, then one service after the other
    sim.run()
    arrive = 100.0 + SYSTEM_NET_HOP_US
    assert served == [(arrive + 3.0, "held-1"), (arrive + 6.0, "held-2")]
    with pytest.raises(ValueError):
        _OneStage(net, "n")


def test_isolation_mode_is_per_node_and_heal_clears_it():
    sim = Simulator()
    net = EmulatedNetwork(sim)
    inbox_a = _OneStage(net, "a", stage_us=0.0).served
    inbox_b = _OneStage(net, "b", stage_us=0.0).served
    net.isolate({"a"})
    net.isolate({"b"}, mode="drop")  # must not turn a's hold into drop
    net.send("a", "to-a")
    net.send("b", "to-b")
    sim.run()
    assert (net.held_messages, net.dropped_messages) == (1, 1)
    net.heal()
    net.send("b", "after-heal")
    sim.run()
    assert (len(inbox_a), len(inbox_b)) == (1, 1)
    assert inbox_a[0][1] == "to-a"
    assert inbox_b[0][1] == "after-heal"
    assert (net.held_messages, net.dropped_messages) == (0, 1)


def test_isolate_unknown_node_rejected():
    net = EmulatedNetwork(Simulator())
    with pytest.raises(KeyError):
        net.isolate({"ghost"})


def test_chain_stalls_during_partition_and_recovers():
    system = ChainReplication("tnic", chain_length=3)
    system.network.isolate({"mid0"})
    # Heal the partition after 5 ms of virtual time.
    system.sim.delayed_call(5_000.0, system.network.heal)
    metrics = system.run_workload(
        [KvRequest("put", "k", "v")], timeout_us=50_000.0
    )
    assert not system.aborted
    assert metrics.committed == 1
    # The commit had to wait out the partition.
    assert metrics.latencies_us[0] >= 5_000.0
    stores = [node.store for node in system.nodes.values()]
    assert all(store == {"k": "v"} for store in stores)


def test_bft_follower_partition_does_not_block_commit():
    """With f=1, isolating one follower leaves a commit quorum."""
    system = BftCounter("tnic", f=1)
    system.network.isolate({"r2"})
    metrics = system.run_workload(batches=2, timeout_us=100_000.0)
    assert metrics.committed == 2
    assert not system.aborted


def test_bft_partitioned_follower_catches_up_after_heal():
    """The healed follower receives all missed messages in order and
    converges on the same state (no skipped counters)."""
    system = BftCounter("tnic", f=1)
    system.network.isolate({"r2"})
    system.sim.delayed_call(8_000.0, system.network.heal)
    system.run_workload(batches=3, timeout_us=100_000.0)
    system.sim.run()  # let the flushed traffic drain
    assert system.replicas["r2"].counter == 3
    assert system.detected_faults() == {}


def test_chain_partition_workload_after_heal():
    system = ChainReplication("tnic", chain_length=3)
    system.network.isolate({"tail"})
    system.sim.delayed_call(3_000.0, system.network.heal)
    metrics = system.run_workload(kv_workload(3, seed=2), timeout_us=60_000.0)
    assert metrics.committed == 3
    assert not system.aborted
