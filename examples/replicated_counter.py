#!/usr/bin/env python3
"""BFT replicated counter: the paper's ordering-service workload.

Runs the 2f+1 leader-based BFT counter (Appendix C.3) across all five
attestation providers, reproduces the Figure-10 comparison in
miniature, and then injects a Byzantine leader (equivocation and
wrong-output) to show the protocol exposing it.

Run:  python examples/replicated_counter.py
"""

from repro.bench.report import Table
from repro.systems.bft import BftCounter, ByzantineBehaviour

PROVIDERS = ["ssl-lib", "ssl-server", "sgx", "amd-sev", "tnic"]


def performance_comparison() -> None:
    table = Table(
        "BFT replicated counter (f=1, batch=8)",
        ["provider", "throughput op/s", "mean latency us"],
    )
    baseline = None
    for provider in PROVIDERS:
        system = BftCounter(provider, f=1, batch=8, seed=1)
        metrics = system.run_workload(batches=10, pipeline_depth=4)
        if provider == "tnic":
            baseline = metrics.throughput_ops
        table.add_row(
            provider,
            f"{metrics.throughput_ops:,.0f}",
            f"{metrics.mean_latency_us:.1f}",
        )
    table.show()
    print(f"(TNIC sustained {baseline:,.0f} committed increments/s)\n")


def byzantine_leader_demo() -> None:
    print("-- Byzantine leader: equivocation attempt --")
    system = BftCounter(
        "tnic", behaviours={"r0": ByzantineBehaviour(equivocate=True)}
    )
    system.run_workload(batches=1, timeout_us=20_000.0)
    print(f"client committed anything? {not system.aborted}")
    for replica, faults in system.detected_faults().items():
        for fault in faults:
            print(f"  {replica} detected: {fault}")

    print("\n-- Byzantine leader: deviating output --")
    system = BftCounter(
        "tnic", behaviours={"r0": ByzantineBehaviour(wrong_output=True)}
    )
    system.run_workload(batches=1, timeout_us=20_000.0)
    print(f"client committed anything? {not system.aborted}")
    for replica, faults in system.detected_faults().items():
        for fault in faults:
            print(f"  {replica} detected: {fault}")


def main() -> None:
    performance_comparison()
    byzantine_leader_demo()


if __name__ == "__main__":
    main()
