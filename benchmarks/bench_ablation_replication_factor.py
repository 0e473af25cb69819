"""Ablation — replication factor: TNIC's 2f+1 vs classical BFT's 3f+1.

The Clement et al. transformation that TNIC implements keeps the
replica count at 2f+1.  This ablation runs the BFT counter at both
replica counts for f = 1, 2 and compares commit throughput and message
load: the 3f+1 configuration adds f replicas' worth of broadcast,
verification and reply traffic for the same fault tolerance.
"""

from conftest import register_artefact

from repro.bench.report import Table
from repro.systems.bft import BftCounter

ROUNDS = 10


def measure():
    results = {}
    for f in (1, 2):
        small = BftCounter("tnic", f=f, batch=1, seed=6)
        small_metrics = small.run_workload(ROUNDS, pipeline_depth=4)
        # Classical BFT's replica budget: 3f+1 nodes for the same f.
        large = BftCounter("tnic", f=f, batch=1, seed=6, extra_replicas=f)
        large_metrics = large.run_workload(ROUNDS, pipeline_depth=4)
        results[f] = {
            "n_small": 2 * f + 1,
            "n_large": 3 * f + 1,
            "thr_small": small_metrics.throughput_ops,
            "thr_large": large_metrics.throughput_ops,
            "msgs_small": small.network.messages_sent,
            "msgs_large": large.network.messages_sent,
        }
    return results


def test_ablation_replication_factor(benchmark):
    results = benchmark.pedantic(measure, rounds=1, iterations=1)

    for f, row in results.items():
        # More replicas, more messages for the same committed work.
        assert row["msgs_large"] > row["msgs_small"]
        # Throughput does not improve with the extra replicas.
        assert row["thr_large"] <= 1.1 * row["thr_small"]

    table = Table(
        "Ablation: replication factor (TNIC BFT counter)",
        ["f", "N=2f+1 op/s", "N~3f+1 op/s", "msgs 2f+1", "msgs 3f+1",
         "traffic ratio"],
    )
    for f, row in results.items():
        table.add_row(
            f,
            f"{row['thr_small']:.0f}",
            f"{row['thr_large']:.0f}",
            row["msgs_small"],
            row["msgs_large"],
            f"{row['msgs_large'] / row['msgs_small']:.2f}x",
        )
    register_artefact("Ablation: replication factor", table.render())
