"""Table 3 — A2M append/lookup throughput and latency.

Paper results (100 M entries, 9.3 GiB log):

=========  =============  =============  ==========  ==========
system     append (op/s)  lookup (op/s)  append us   lookup us
SSL-lib    790 K          256 M          1.26        0.0039
SGX-lib    380 K          3.8 M          2.6         0.26
AMD-sev    30 K           263 M          32.37       0.0038
TNIC       158 K          257 M          6.34        0.0039
=========  =============  =============  ==========  ==========

The simulation appends a scaled-down entry count but preserves the
full 9.3 GiB address-space layout for the lookup cost model, so the
EPC-paging behaviour matches the paper's workload.
"""

from conftest import register_artefact

from repro.bench.report import Table
from repro.sim import Simulator
from repro.systems.a2m import A2M
from repro.tee import make_provider

KEY = b"a2m-bench-key-0123456789abcdef!!"
APPENDS = 300
#: Lookup cost sampled over the full 100M-entry index space.
LOOKUP_SAMPLES = 20_000
TOTAL_ENTRIES = 100_000_000

SYSTEMS = [
    ("SSL-lib", "ssl-lib", "untrusted"),
    ("SGX-lib", "sgx-lib", "enclave"),
    ("AMD-sev", "amd-sev", "untrusted"),
    ("TNIC", "tnic", "untrusted"),
]


def measure():
    results = {}
    for label, provider_name, storage in SYSTEMS:
        sim = Simulator()
        kwargs = {"lower_bound": True} if provider_name == "amd-sev" else {}
        provider = make_provider(provider_name, sim, 1, seed=13, **kwargs)
        provider.install_session(1, KEY)
        a2m = A2M(provider, 1, storage=storage)

        start = sim.now
        for i in range(APPENDS):
            sim.run(a2m.append("log", b"x" * 64))
        append_latency = (sim.now - start) / APPENDS

        stride = TOTAL_ENTRIES // LOOKUP_SAMPLES
        lookup_cost = sum(
            a2m.lookup_cost_us("log", i * stride) for i in range(LOOKUP_SAMPLES)
        ) / LOOKUP_SAMPLES

        results[label] = {
            "append_us": append_latency,
            "append_ops": 1e6 / append_latency,
            "lookup_us": lookup_cost,
            "lookup_ops": 1e6 / lookup_cost,
        }
    return results


def test_tab03_a2m(benchmark):
    results = benchmark.pedantic(measure, rounds=1, iterations=1)

    ssl, sgx = results["SSL-lib"], results["SGX-lib"]
    sev, tnic = results["AMD-sev"], results["TNIC"]

    # Append: SSL-lib ~1.26us; SGX-lib ~2x slower; AMD-sev ~15x slower
    # (32us emulated); TNIC ~5x vs SSL-lib and ~2.4x vs SGX-lib.
    assert ssl["append_us"] == pytest_approx(1.26, rel=0.25)
    assert 1.5 <= sgx["append_us"] / ssl["append_us"] <= 3.0
    assert 10.0 <= sev["append_us"] / ssl["append_us"] <= 40.0
    assert 3.0 <= tnic["append_us"] / ssl["append_us"] <= 8.0
    assert 1.8 <= tnic["append_us"] / sgx["append_us"] <= 4.0

    # Lookup: untrusted host memory everywhere except SGX-lib, which
    # pays the 66x EPC-paging penalty.
    for label in ("SSL-lib", "AMD-sev", "TNIC"):
        assert results[label]["lookup_us"] == pytest_approx(0.0039, rel=0.05)
    slowdown = sgx["lookup_us"] / ssl["lookup_us"]
    assert 40.0 <= slowdown <= 70.0

    table = Table(
        "Table 3: A2M throughput and latency",
        ["system", "append op/s", "lookup op/s", "append us", "lookup us"],
    )
    for label, row in results.items():
        table.add_row(
            label,
            f"{row['append_ops'] / 1e3:.0f}K",
            f"{row['lookup_ops'] / 1e6:.1f}M",
            f"{row['append_us']:.2f}",
            f"{row['lookup_us']:.4f}",
        )
    register_artefact("Table 3", table.render())


def pytest_approx(value, rel):
    import pytest

    return pytest.approx(value, rel=rel)
