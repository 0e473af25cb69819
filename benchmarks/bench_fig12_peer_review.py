"""Figure 12 — PeerReview throughput (and latency), audit on/off.

Paper results: without the audit protocol the TEE systems are up to
30x slower than SSL-lib while TNIC recovers 3-5x of that; with the
audit protocol TNIC stays 3.7-5.4x ahead of the TEEs, and the audit
itself costs ~17 us (~25% of latency, a 1.33x slowdown).
"""

from conftest import register_artefact

from repro.bench.report import Table
from repro.systems.peer_review import PeerReviewSystem

PROVIDERS = ["ssl-lib", "ssl-server", "sgx", "amd-sev", "tnic"]
CHUNKS = 10


def measure():
    results = {}
    for provider in PROVIDERS:
        for audit in (False, True):
            system = PeerReviewSystem(provider, audit=audit, seed=9)
            results[(provider, audit)] = system.run_workload(CHUNKS)
    return results


def test_fig12_peer_review(benchmark):
    results = benchmark.pedantic(measure, rounds=1, iterations=1)

    def thr(provider, audit):
        return results[(provider, audit)].throughput_ops

    for audit in (False, True):
        assert thr("tnic", audit) >= 1.5 * thr("sgx", audit)
        assert thr("tnic", audit) >= 1.3 * thr("amd-sev", audit)
        assert thr("ssl-lib", audit) > thr("tnic", audit)

    # Audit overhead ~17us, bounded slowdown (paper: 1.33x).
    slowdown = thr("tnic", False) / thr("tnic", True)
    assert 1.05 <= slowdown <= 1.8
    extra = (
        results[("tnic", True)].mean_latency_us
        - results[("tnic", False)].mean_latency_us
    )
    assert 10.0 <= extra <= 25.0

    table = Table(
        "Figure 12: PeerReview",
        ["system", "no-audit op/s", "audit op/s", "audit lat us",
         "audit slowdown"],
    )
    for provider in PROVIDERS:
        table.add_row(
            provider,
            f"{thr(provider, False):.0f}",
            f"{thr(provider, True):.0f}",
            f"{results[(provider, True)].mean_latency_us:.1f}",
            f"{thr(provider, False) / thr(provider, True):.2f}x",
        )
    register_artefact("Figure 12", table.render())
