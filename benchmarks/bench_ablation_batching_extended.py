"""Ablation — extended batching sweep for the BFT counter.

Figure 10 sweeps batching factors 1/8/16; this ablation extends the
sweep to 64 to find where batching stops paying: once the per-batch
fixed costs (attestations, network hops) are amortised, per-request
throughput gains flatten.
"""

from conftest import register_artefact

from repro.bench.report import Table
from repro.systems.bft import BftCounter

BATCHES = [1, 2, 4, 8, 16, 32, 64]
ROUNDS = 8


def measure():
    results = {}
    for batch in BATCHES:
        system = BftCounter("tnic", f=1, batch=batch, seed=8)
        results[batch] = system.run_workload(ROUNDS, pipeline_depth=4)
    return results


def test_ablation_batching_extended(benchmark):
    results = benchmark.pedantic(measure, rounds=1, iterations=1)

    throughputs = {b: results[b].throughput_ops for b in BATCHES}
    # Monotone non-decreasing gains...
    for a, b in zip(BATCHES, BATCHES[1:]):
        assert throughputs[b] >= throughputs[a] * 0.95
    # ...with diminishing returns: the 32->64 step gains far less per
    # added request than the 1->2 step.
    gain_small = throughputs[2] / throughputs[1]
    gain_large = throughputs[64] / throughputs[32]
    assert gain_small > gain_large

    table = Table(
        "Ablation: batching sweep (TNIC BFT counter)",
        ["batch", "op/s", "mean lat us", "speedup vs b=1"],
    )
    for batch in BATCHES:
        table.add_row(
            batch,
            f"{throughputs[batch]:.0f}",
            f"{results[batch].mean_latency_us:.1f}",
            f"{throughputs[batch] / throughputs[1]:.1f}x",
        )
    register_artefact("Ablation: extended batching", table.render())
