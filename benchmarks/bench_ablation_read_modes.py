"""Ablation — Chain Replication read paths (Appendix C.4).

"Clients can execute the get requests similarly to write requests,
traversing the entire chain, or clients can consult the majority and
broadcast the request to f+1 replicas, including the tail."

This ablation quantifies the trade-off over read fractions from 0% to
90%: quorum reads replace the serial chain traversal with one parallel
broadcast round, so their advantage grows with the read share.
"""

from conftest import register_artefact

from repro.bench.report import Table
from repro.systems.chain import ChainReplication, KvRequest

READ_FRACTIONS = [0.0, 0.3, 0.6, 0.9]
REQUESTS = 10


def workload(read_fraction: float) -> list[KvRequest]:
    requests = [KvRequest("put", "key", "value-0")]
    reads = int(REQUESTS * read_fraction)
    writes = REQUESTS - reads - 1
    for i in range(writes):
        requests.append(KvRequest("put", "key", f"value-{i + 1}"))
    requests.extend(KvRequest("get", "key") for _ in range(reads))
    return requests


def measure():
    results = {}
    for fraction in READ_FRACTIONS:
        for mode in ("chain", "quorum"):
            system = ChainReplication("tnic", chain_length=3, seed=6)
            metrics = system.run_workload(workload(fraction), read_mode=mode)
            assert not system.aborted
            results[(fraction, mode)] = metrics
    return results


def test_ablation_read_modes(benchmark):
    results = benchmark.pedantic(measure, rounds=1, iterations=1)

    def thr(fraction, mode):
        return results[(fraction, mode)].throughput_ops

    # Write-only workloads are identical across modes.
    assert thr(0.0, "quorum") == thr(0.0, "chain")
    # The quorum advantage grows with the read fraction.
    gains = [thr(f, "quorum") / thr(f, "chain") for f in READ_FRACTIONS]
    assert gains[-1] > gains[0]
    assert gains[-1] > 1.3

    table = Table(
        "Ablation: CR read modes (throughput op/s)",
        ["read fraction", "chain reads", "quorum reads", "gain"],
    )
    for fraction in READ_FRACTIONS:
        table.add_row(
            f"{fraction:.0%}",
            f"{thr(fraction, 'chain'):.0f}",
            f"{thr(fraction, 'quorum'):.0f}",
            f"{thr(fraction, 'quorum') / thr(fraction, 'chain'):.2f}x",
        )
    register_artefact("Ablation: CR read modes", table.render())
