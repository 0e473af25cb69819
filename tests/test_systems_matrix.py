"""Cross-provider smoke matrix: every system × every provider commits
correctly and the provider ordering is sane."""

import pytest

from repro.bench import kv_workload
from repro.systems.bft import BftCounter
from repro.systems.bft_viewchange import ViewChangeBftCounter
from repro.systems.chain import ChainReplication
from repro.systems.common import SystemMetrics
from repro.systems.peer_review import PeerReviewSystem

PROVIDERS = ["ssl-lib", "ssl-server", "sgx", "amd-sev", "tnic"]


@pytest.mark.parametrize("provider", PROVIDERS)
def test_bft_counter_commits(provider):
    system = BftCounter(provider, f=1, batch=2, seed=7)
    metrics = system.run_workload(batches=4)
    assert metrics.committed == 8
    assert not system.aborted
    assert {r.counter for r in system.replicas.values()} == {8}
    assert system.detected_faults() == {}


@pytest.mark.parametrize("provider", PROVIDERS)
def test_chain_replication_commits(provider):
    system = ChainReplication(provider, chain_length=3, seed=7)
    metrics = system.run_workload(kv_workload(4, seed=7))
    assert metrics.committed == 4
    assert not system.aborted
    stores = [node.store for node in system.nodes.values()]
    assert all(store == stores[0] for store in stores)


@pytest.mark.parametrize("provider", PROVIDERS)
def test_peer_review_streams(provider):
    system = PeerReviewSystem(provider, audit=True, seed=7)
    metrics = system.run_workload(chunks=3)
    assert metrics.committed == 3
    assert system.detected_faults() == []


def test_provider_latency_ordering_consistent_across_systems():
    """Within each system, SSL-lib is fastest and SGX slowest of the
    emulated providers (matching the §8.1 attest latencies)."""
    for build, run in [
        (lambda p: BftCounter(p, seed=9),
         lambda s: s.run_workload(batches=4)),
        (lambda p: ChainReplication(p, seed=9),
         lambda s: s.run_workload(kv_workload(4, seed=9))),
        (lambda p: PeerReviewSystem(p, audit=False, seed=9),
         lambda s: s.run_workload(4)),
    ]:
        latency = {}
        for provider in ("ssl-lib", "tnic", "sgx"):
            metrics = run(build(provider))
            latency[provider] = metrics.mean_latency_us
        assert latency["ssl-lib"] < latency["tnic"] < latency["sgx"]


@pytest.mark.parametrize("build", [
    BftCounter, ViewChangeBftCounter, ChainReplication, PeerReviewSystem,
])
def test_amd_sev_systems_use_the_30us_lower_bound(build):
    """§8.3 runs every system on AMD-sev's deterministic 30 us bound."""
    system = build("amd-sev")
    assert all(p.lower_bound for p in system.providers.values())


# ---------------------------------------------------------------------------
# SystemMetrics accounting
# ---------------------------------------------------------------------------

def test_metrics_empty_defaults():
    metrics = SystemMetrics()
    assert metrics.throughput_ops == 0.0
    assert metrics.mean_latency_us == 0.0
    assert metrics.percentile_latency_us(0.99) == 0.0


def test_metrics_accounting():
    metrics = SystemMetrics()
    metrics.started_at = 0.0
    for latency in (10.0, 20.0, 30.0):
        metrics.record(latency)
    metrics.finished_at = 60.0
    assert metrics.committed == 3
    assert metrics.mean_latency_us == 20.0
    assert metrics.throughput_ops == pytest.approx(3 / 60e-6)
    assert metrics.percentile_latency_us(0.0) == 10.0
    assert metrics.percentile_latency_us(0.99) == 30.0
