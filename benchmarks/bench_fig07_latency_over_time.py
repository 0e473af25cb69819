"""Figure 7 — per-operation latency over time (SGX spikes).

Paper result: the HMAC execution within the TEE often experiences huge
latency spikes (200-500 us) attributed to SCONE scheduling effects;
the SGX-empty control (enclave call without the HMAC body) does not;
AMD systems spike in the same 200-500 us band.
"""

from conftest import register_artefact

from repro.bench.report import Table
from repro.sim import Simulator
from repro.tee import make_provider

OPERATIONS = 3000


def measure():
    sim = Simulator()
    series = {
        "SGX": make_provider("sgx", sim, 1, seed=5),
        "SGX-empty": make_provider("sgx", sim, 1, seed=5, empty_body=True),
        "AMD-sev": make_provider("amd-sev", sim, 1, seed=5),
    }
    return {
        label: [provider.attest_latency_us(64) for _ in range(OPERATIONS)]
        for label, provider in series.items()
    }


def stats(samples):
    mean = sum(samples) / len(samples)
    peak = max(samples)
    spikes = sum(1 for s in samples if s > 150.0)
    return mean, peak, spikes


def test_fig07_latency_over_time(benchmark):
    series = benchmark.pedantic(measure, rounds=2, iterations=1)

    sgx_mean, sgx_peak, sgx_spikes = stats(series["SGX"])
    empty_mean, empty_peak, empty_spikes = stats(series["SGX-empty"])
    sev_mean, sev_peak, sev_spikes = stats(series["AMD-sev"])

    # SGX with the HMAC body spikes into the 200-500us band.
    assert 200.0 <= sgx_peak <= 600.0
    assert sgx_spikes > 0
    # The empty-body control shows no such spikes.
    assert empty_spikes == 0
    assert empty_peak < 100.0
    # "We observe similar latency variations ... on AMD systems,
    # spiking up to 200-500 us."  (spike + base jitter can overshoot)
    assert 200.0 <= sev_peak <= 800.0
    # The body (HMAC in enclave) dominates the mean gap.
    assert sgx_mean > 2 * empty_mean

    table = Table(
        "Figure 7: per-op latency over time (us)",
        ["series", "mean", "peak", "spikes >150us", f"ops"],
    )
    for label in ("SGX", "SGX-empty", "AMD-sev"):
        mean, peak, spikes = stats(series[label])
        table.add_row(label, f"{mean:.1f}", f"{peak:.0f}", spikes, OPERATIONS)
    register_artefact("Figure 7", table.render())
