"""Ablation — view-change (leader failover) cost.

§8.5 sketches view-change via new connection identifiers but does not
evaluate it; this ablation quantifies the extension implemented in
:mod:`repro.systems.bft_viewchange`: steady-state overhead of the
failover machinery (none — the watchdog only fires on silence) and the
failover latency as a function of the watchdog timeout.
"""

from conftest import register_artefact

from repro.bench.report import Table
from repro.systems.bft import BftCounter
from repro.systems.bft_viewchange import ViewChangeBftCounter

WATCHDOGS = [200.0, 400.0, 800.0]
BATCHES = 6


def measure():
    baseline = BftCounter("tnic", f=1, seed=4).run_workload(BATCHES)
    healthy = ViewChangeBftCounter("tnic", f=1, seed=4).run_workload(BATCHES)
    failovers = {}
    for watchdog in WATCHDOGS:
        system = ViewChangeBftCounter(
            "tnic", f=1, seed=4, silent_replicas={"r0"},
            watchdog_us=watchdog,
        )
        failovers[watchdog] = system.run_workload(1)
    return baseline, healthy, failovers


def test_ablation_viewchange(benchmark):
    baseline, healthy, failovers = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )

    # Healthy-path cost of the machinery is modest (broadcast client).
    assert healthy.throughput_ops > 0.4 * baseline.throughput_ops
    # Failover latency tracks the watchdog timeout.
    for watchdog, metrics in failovers.items():
        assert metrics.committed == 1
        assert metrics.latencies_us[0] >= watchdog
    ordered = [failovers[w].latencies_us[0] for w in WATCHDOGS]
    assert ordered == sorted(ordered)

    table = Table(
        "Ablation: view-change failover",
        ["configuration", "commit latency us", "throughput op/s"],
    )
    table.add_row("BFT (no view-change machinery)",
                  f"{baseline.mean_latency_us:.1f}",
                  f"{baseline.throughput_ops:.0f}")
    table.add_row("BFT + view-change, healthy leader",
                  f"{healthy.mean_latency_us:.1f}",
                  f"{healthy.throughput_ops:.0f}")
    for watchdog in WATCHDOGS:
        metrics = failovers[watchdog]
        table.add_row(
            f"crashed leader, watchdog={watchdog:.0f}us",
            f"{metrics.latencies_us[0]:.1f}",
            f"{metrics.throughput_ops:.0f}",
        )
    register_artefact("Ablation: view-change", table.render())
