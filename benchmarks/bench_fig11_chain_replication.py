"""Figure 11 — Chain Replication throughput (and latency).

Paper results: TNIC is ~5x faster than SGX and ~3.4x than AMD-sev;
SSL-lib is ~4.6x faster than TNIC; TNIC is ~30% faster than SSL-server
(which is not tamper-proof) thanks to hardware acceleration on the
datapath.  Each request carries 60 B context + 4 B op + 32 B signature.
"""

from conftest import register_artefact

from repro.bench import kv_workload
from repro.bench.report import Table
from repro.crypto import reset_verification_cache, verification_cache_stats
from repro.systems.chain import ChainReplication

PROVIDERS = ["ssl-lib", "ssl-server", "sgx", "amd-sev", "tnic"]
REQUESTS = 10


def measure():
    results = {}
    for provider in PROVIDERS:
        workload = kv_workload(REQUESTS, read_fraction=0.3, value_bytes=60,
                               seed=5)
        system = ChainReplication(provider, chain_length=3, seed=5)
        results[provider] = system.run_workload(workload)
        assert not system.aborted
    return results


def test_fig11_chain_replication(benchmark):
    reset_verification_cache()
    results = benchmark.pedantic(measure, rounds=1, iterations=1)

    # Chain replication forwards the head's attested proof down the
    # chain, so multiple nodes re-verify identical (message, α) pairs:
    # the verification cache must show real hits here.
    cache = verification_cache_stats()
    assert cache["hits"] > 0, cache

    thr = {p: results[p].throughput_ops for p in PROVIDERS}

    # TNIC clearly beats the TEE systems (paper: 5x / 3.4x).
    assert thr["tnic"] >= 1.5 * thr["sgx"]
    assert thr["tnic"] >= 1.3 * thr["amd-sev"]
    # SSL-lib leads TNIC (paper: 4.6x; the gap depends on the share of
    # network time the emulation attributes to the DRCT-IO substrate).
    assert thr["ssl-lib"] > thr["tnic"]
    # "it is 30% faster than SSL-server"
    assert 1.05 <= thr["tnic"] / thr["ssl-server"] <= 2.0
    # Latency ordering consistent.
    assert (
        results["tnic"].mean_latency_us < results["sgx"].mean_latency_us
    )

    table = Table(
        "Figure 11: Chain Replication",
        ["system", "op/s", "mean lat us", "vs TNIC"],
    )
    for provider in PROVIDERS:
        table.add_row(
            provider,
            f"{thr[provider]:.0f}",
            f"{results[provider].mean_latency_us:.1f}",
            f"{thr[provider] / thr['tnic']:.2f}x",
        )
    register_artefact(
        "Figure 11",
        table.render()
        + (f"\nHMAC verify cache: hits={cache['hits']} "
           f"misses={cache['misses']} hit_rate={cache['hit_rate']:.2%}"),
    )
