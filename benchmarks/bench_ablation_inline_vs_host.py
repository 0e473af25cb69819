"""Ablation — attestation placement: inline NIC datapath vs host-side.

DESIGN.md calls out the placement of the attestation kernel *on the
NIC datapath* as a core design choice.  This ablation compares the
TNIC placement against the same cryptographic work performed by a
host-side process (the SSL-server architecture): the host-side design
pays a loopback round trip per operation and loses the overlap with
the DMA/wire pipeline, which is exactly the gap Figure 5 shows.
"""

from conftest import register_artefact

from repro.bench.report import Table
from repro.sim import Simulator
from repro.tee import make_provider

SIZES = [64, 256, 1024, 4096]
SAMPLES = 300


def measure():
    sim = Simulator()
    variants = {
        "inline (TNIC async DMA)": make_provider("tnic", sim, 1, seed=7),
        "inline (TNIC sync DMA)": make_provider(
            "tnic", sim, 1, seed=7, synchronous=True
        ),
        "host process (SSL-server)": make_provider(
            "ssl-server", sim, 1, seed=7
        ),
        "host TEE process (SGX)": make_provider("sgx", sim, 1, seed=7),
    }
    return {
        label: {
            size: sum(p.attest_latency_us(size) for _ in range(SAMPLES)) / SAMPLES
            for size in SIZES
        }
        for label, p in variants.items()
    }


def test_ablation_inline_vs_host(benchmark):
    results = benchmark.pedantic(measure, rounds=1, iterations=1)

    inline = results["inline (TNIC async DMA)"]
    host = results["host process (SSL-server)"]
    tee = results["host TEE process (SGX)"]
    # Inline placement wins for small messages (the common RPC sizes);
    # the TEE variant is always worst of the host designs.
    for size in (64, 256):
        assert inline[size] < host[size] < tee[size], size
    # Crossover: at large sizes the byte-serial FPGA HMAC loses to the
    # host CPU's vectorised HMAC — the cost of the inline design that
    # §8.2's 30-40% per-doubling growth reflects.
    assert inline[4096] > host[4096]
    # The synchronous-DMA variant shows what the async datapath saves.
    sync = results["inline (TNIC sync DMA)"]
    assert sync[64] > 2.5 * inline[64]

    table = Table(
        "Ablation: attestation placement (attest latency, us)",
        ["variant"] + [f"{s}B" for s in SIZES],
    )
    for label, row in results.items():
        table.add_row(label, *(f"{row[s]:.1f}" for s in SIZES))
    register_artefact("Ablation: inline vs host", table.render())
