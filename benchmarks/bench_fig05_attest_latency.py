"""Figure 5 — Attest() latency for 64 B and 128 B inputs.

Paper result: TNIC ~23 us synchronous; at least 2x faster than the
TEE-based competitors (SGX, AMD-sev); ~1.2x faster than the AMD native
SSL-server; SSL-lib (native library) fastest of all.
"""

from conftest import register_artefact

from repro.bench.report import Table
from repro.sim import Simulator
from repro.tee import make_provider

SYSTEMS = [
    ("SSL-lib", "ssl-lib", {}),
    ("SSL-server (Intel-x86)", "ssl-server", {"arch": "intel"}),
    ("SSL-server (AMD)", "ssl-server", {"arch": "amd"}),
    ("SGX", "sgx", {}),
    ("AMD-sev", "amd-sev", {}),
    ("TNIC", "tnic", {"synchronous": True}),
]

SAMPLES = 400


def measure() -> dict[str, dict[int, float]]:
    sim = Simulator()
    results: dict[str, dict[int, float]] = {}
    for label, name, kwargs in SYSTEMS:
        results[label] = {}
        for size in (64, 128):
            # A fresh provider per size replays the same jitter stream,
            # isolating the size effect (paired sampling).
            provider = make_provider(name, sim, 1, seed=11, **kwargs)
            samples = [provider.attest_latency_us(size) for _ in range(SAMPLES)]
            results[label][size] = sum(samples) / len(samples)
    return results


def test_fig05_attest_latency(benchmark):
    results = benchmark.pedantic(measure, rounds=3, iterations=1)

    tnic = results["TNIC"][64]
    # "TNIC achieves performance in the microseconds range (23 us)"
    assert 20.0 <= tnic <= 26.0
    # "outperforms its equivalent TEE-based competitors at least by a
    # factor of 2"
    assert results["SGX"][64] >= 1.8 * tnic
    assert results["AMD-sev"][64] >= 1.8 * tnic
    # "TNIC is approximately 1.2x faster than AMD"
    assert 1.05 <= results["SSL-server (AMD)"][64] / tnic <= 1.35
    # SSL-lib fastest.
    assert results["SSL-lib"][64] < min(
        v[64] for k, v in results.items() if k != "SSL-lib"
    )
    # Larger inputs are never cheaper.
    for label in results:
        assert results[label][128] >= results[label][64] * 0.99

    table = Table(
        "Figure 5: Attest() latency (us)",
        ["system", "64B", "128B", "vs TNIC (64B)"],
    )
    for label, values in results.items():
        table.add_row(
            label,
            f"{values[64]:.1f}",
            f"{values[128]:.1f}",
            f"{values[64] / tnic:.2f}x",
        )
    register_artefact("Figure 5", table.render())
