"""Tests for the view-change extension (§8.5 sketch made concrete)."""

import pytest

from repro.systems.bft_viewchange import ViewChangeBftCounter


def test_honest_leader_no_view_change():
    system = ViewChangeBftCounter("tnic", f=1)
    metrics = system.run_workload(batches=5)
    assert metrics.committed == 5
    assert not system.aborted
    assert set(system.current_views().values()) == {0}
    # No replica saw a view change.
    assert all(r.view_changes_seen == 0 for r in system.replicas.values())


def test_silent_leader_triggers_failover_and_commits():
    """A crashed leader (r0) is replaced; the client still commits."""
    system = ViewChangeBftCounter("tnic", f=1, silent_replicas={"r0"})
    metrics = system.run_workload(batches=3)
    assert metrics.committed == 3
    assert not system.aborted
    views = system.current_views()
    # The live replicas advanced to view 1 (leader r1).
    assert views["r1"] >= 1 and views["r2"] >= 1
    assert system.leader_of(views["r1"]) != "r0"


def test_failover_latency_includes_watchdog():
    """Failed-over batches pay at least the watchdog timeout."""
    system = ViewChangeBftCounter(
        "tnic", f=1, silent_replicas={"r0"}, watchdog_us=500.0
    )
    metrics = system.run_workload(batches=1)
    assert metrics.committed == 1
    assert metrics.latencies_us[0] >= 500.0


def test_two_silent_followers_unavailable_beyond_f():
    """With f=1 and two crashed replicas (beyond tolerance), the system
    cannot gather a quorum: the client observes unavailability, never
    an incorrect commit."""
    system = ViewChangeBftCounter(
        "tnic", f=1, silent_replicas={"r1", "r2"}, watchdog_us=300.0
    )
    system.run_workload(batches=1, timeout_us=10_000.0)
    assert system.aborted
    assert system.metrics.committed == 0


def test_replicas_converge_on_counter_after_failover():
    system = ViewChangeBftCounter("tnic", f=1, silent_replicas={"r0"})
    system.run_workload(batches=4)
    live = [system.replicas[name] for name in ("r1", "r2")]
    assert {r.counter for r in live} == {4}


def test_f2_failover():
    system = ViewChangeBftCounter("tnic", f=2, silent_replicas={"r0"})
    metrics = system.run_workload(batches=2)
    assert metrics.committed == 2
    assert not system.aborted


def test_stale_view_poe_ignored():
    """A PoE carrying an old view number is dropped: 'previous
    connections will not block execution'."""
    system = ViewChangeBftCounter("tnic", f=1, silent_replicas={"r0"})
    system.run_workload(batches=1)
    r1 = system.replicas["r1"]
    assert r1.view == 1
    # An old-view PoE arriving late is dropped before any check (one
    # with no attestation at all would fail it).
    from repro.systems.bft_viewchange import ViewPoe

    counter_before = r1.counter
    system.network.send("r1", ViewPoe(view=0, sender="r0", attested=None))
    system.sim.run()
    assert r1.counter == counter_before
    assert not r1.detected_faults


def test_parameter_validation():
    with pytest.raises(ValueError):
        ViewChangeBftCounter(f=0)
