"""Table 4 — TCB size: TEE-hosted CFT systems vs TNIC.

Paper results: TEEs-Raft / TEEs-CR carry the whole OS (2,307 KLoC), an
OpenSSL attestation path (1,268 LoC) and the application (856 / 992
LoC) inside the trusted boundary — ~2,309 KLoC in total — whereas
TNIC's TCB is its 2,114-LoC hardware attestation kernel: 0.09% of the
TEE-hosted figure.  The same section reports TEE-Raft ~2.5x TNIC-BFT
and TEE-CR ~2x TNIC-CR; both ratios are regenerated here.

Beyond the paper's constants, the trusted-vs-untrusted split of *this*
repository is measured from the AST (repro.analysis) and bound-checked
on every run; it is printed, not committed — ``measure()`` returns only
what is a function of the model (the paper table and the two throughput
ratios), so ``BENCH_tab04.json`` does not move with a source edit.
"""

from conftest import register_artefact

from repro.analysis import TcbReport, collect_sources, default_package_root
from repro.bench import kv_workload
from repro.bench.report import Table
from repro.core.resources import (
    TEE_CR_APP_LOC,
    TEE_HOSTED_ATT_KERNEL_LOC,
    TEE_HOSTED_OS_LOC,
    TEE_RAFT_APP_LOC,
    TNIC_TCB_LOC,
)
from repro.systems.bft import BftCounter
from repro.systems.chain import ChainReplication
from repro.systems.cr_cft import TeeChainReplication
from repro.systems.raft import TeeRaft


def measure():
    tcb = {
        "TEEs-Raft": ("CFT", TEE_HOSTED_OS_LOC, TEE_HOSTED_ATT_KERNEL_LOC,
                      TEE_RAFT_APP_LOC),
        "TEEs-CR": ("CFT", TEE_HOSTED_OS_LOC, TEE_HOSTED_ATT_KERNEL_LOC,
                    TEE_CR_APP_LOC),
        "TNIC": ("BFT", 0, TNIC_TCB_LOC, 0),
    }
    raft = TeeRaft(nodes=3, pipeline_depth=8).run_workload(40)
    bft = BftCounter("tnic", batch=1).run_workload(40, pipeline_depth=8)
    cr_cft = TeeChainReplication(chain_length=3).run_workload(
        kv_workload(10, seed=2)
    )
    cr_bft = ChainReplication("tnic", chain_length=3, seed=2).run_workload(
        kv_workload(10, seed=2)
    )
    perf = {
        "raft_vs_bft": raft.throughput_ops / bft.throughput_ops,
        "cr_cft_vs_bft": cr_cft.throughput_ops / cr_bft.throughput_ops,
    }
    return tcb, perf


def test_tab04_tcb_size(benchmark):
    tcb, perf = benchmark.pedantic(measure, rounds=1, iterations=1)

    raft_total = sum(tcb["TEEs-Raft"][1:])
    tnic_total = sum(tcb["TNIC"][1:])
    assert tnic_total == 2_114
    # "It is only 0.09% of TEE-hosted systems."
    assert tnic_total / raft_total < 0.001
    # TEE-hosted CFT systems outrun the BFT equivalents (paper: 2.5x/2x).
    assert 1.5 <= perf["raft_vs_bft"] <= 4.0
    assert 1.3 <= perf["cr_cft_vs_bft"] <= 3.5

    table = Table(
        "Table 4: TCB size (LoC) and CFT-vs-BFT performance",
        ["system", "threat model", "OS", "att. kernel", "app", "total"],
    )
    for name, (model, os_loc, att_loc, app_loc) in tcb.items():
        table.add_row(
            name, model,
            f"{os_loc:,}" if os_loc else "-",
            f"{att_loc:,}",
            f"{app_loc:,}" if app_loc else "-",
            f"{os_loc + att_loc + app_loc:,}",
        )
    # Measured accounting: trusted LoC of this repo, same order of
    # magnitude as the paper's 2,114-LoC kernel.
    measured = TcbReport.from_sources(collect_sources([default_package_root()]))
    assert 0 < measured.trusted_loc < 10 * tnic_total

    extra = (
        f"TEEs-Raft vs TNIC-BFT throughput: {perf['raft_vs_bft']:.2f}x "
        f"(paper ~2.5x)\n"
        f"TEEs-CR vs TNIC-CR throughput:   {perf['cr_cft_vs_bft']:.2f}x "
        f"(paper ~2x)\n"
        + measured.render()
    )
    register_artefact("Table 4", table.render() + "\n" + extra)
