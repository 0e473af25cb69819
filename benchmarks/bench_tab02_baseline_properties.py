"""Table 2 — security properties of the host-sided baselines and TNIC.

Paper result: only TNIC is simultaneously host-TEE-free and
tamper-proof; SSL-lib/SSL-server are TEE-free but not tamper-proof;
SGX/AMD-sev are tamper-proof but require a host TEE.
"""

from conftest import register_artefact

from repro.bench.report import Table
from repro.tee.providers import PROVIDER_FACTORIES

ROWS = ["ssl-lib", "ssl-server", "sgx", "amd-sev", "tnic"]


def measure():
    return {
        name: PROVIDER_FACTORIES[name].properties for name in ROWS
    }


def test_tab02_baseline_properties(benchmark):
    props = benchmark.pedantic(measure, rounds=1, iterations=1)

    assert props["tnic"].host_tee_free and props["tnic"].tamper_proof
    assert props["ssl-lib"].host_tee_free and not props["ssl-lib"].tamper_proof
    assert props["ssl-server"].host_tee_free
    assert not props["ssl-server"].tamper_proof
    assert not props["sgx"].host_tee_free and props["sgx"].tamper_proof
    assert not props["amd-sev"].host_tee_free and props["amd-sev"].tamper_proof
    # TNIC is the only row with both properties.
    both = [n for n in ROWS if props[n].host_tee_free and props[n].tamper_proof]
    assert both == ["tnic"]

    table = Table(
        "Table 2: host-sided baselines and TNIC",
        ["system", "(host) TEE-free", "tamper-proof"],
    )
    for name in ROWS:
        table.add_row(
            name,
            "Yes" if props[name].host_tee_free else "No",
            "Yes" if props[name].tamper_proof else "No",
        )
    register_artefact("Table 2", table.render())
