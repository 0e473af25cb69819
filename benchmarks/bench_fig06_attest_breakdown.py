"""Figure 6 — Attest() latency breakdown.

Paper result: device/TEE access costs dominate — 30% to 90% of total
latency across systems; for TNIC the PCIe transfer (16 us) is ~70% of
the 23 us; for the TEEs, communication + syscalls are up to ~40% and
the in-TEE HMAC runs >30x slower than native.
"""

from conftest import register_artefact

from repro.bench.report import Table
from repro.sim.latency import SSL_LIB_ATTEST_US, attest_breakdown

SYSTEMS = ["ssl-lib", "ssl-server", "ssl-server-amd", "sgx", "amd-sev", "tnic"]


def measure():
    return {name: attest_breakdown(name, 64) for name in SYSTEMS}


def test_fig06_attest_breakdown(benchmark):
    breakdowns = benchmark.pedantic(measure, rounds=5, iterations=1)

    tnic = breakdowns["tnic"]
    # "the transfer time (16us) accounts for 70% of the execution time"
    assert tnic.transfer_us == 16.0
    assert 0.6 <= tnic.share("transfer") <= 0.8
    # Access costs range 30%-90% across the non-library systems.
    for name in ("ssl-server", "ssl-server-amd", "sgx", "amd-sev", "tnic"):
        assert 0.25 <= breakdowns[name].share("transfer") <= 0.95, name
    # In-TEE HMAC >30x native compute.
    assert breakdowns["sgx"].compute_us >= 30 * SSL_LIB_ATTEST_US
    # SSL-lib has no communication component.
    assert breakdowns["ssl-lib"].transfer_us == 0.0

    table = Table(
        "Figure 6: Attest() latency breakdown (us)",
        ["system", "transfer/comm", "compute", "other", "total", "comm share"],
    )
    for name, b in breakdowns.items():
        table.add_row(
            name,
            f"{b.transfer_us:.1f}",
            f"{b.compute_us:.1f}",
            f"{b.other_us:.1f}",
            f"{b.total_us:.1f}",
            f"{100 * b.share('transfer'):.0f}%",
        )
    register_artefact("Figure 6", table.render())
