"""Benchmark — simulator-kernel overhead (wall-clock).

Infrastructure benchmark: how many simulation events per wall-clock
second the discrete-event kernel sustains.  Keeps the substrate honest:
every paper experiment runs on this loop, so regressions here inflate
every other bench's wall time.

The workload definitions live in :mod:`repro.bench.kernel_workloads`
and are shared with ``benchmarks/run_all.py`` and the CI perf-smoke
gate, so this bench times the workloads CI enforces; the committed
numbers are ``results/BENCH_sim_kernel.json`` (``run_all.py``).
"""

from kernel_measure import measure_workload

from repro.bench.kernel_workloads import (
    DEFAULT_EVENTS as EVENTS,
    WORKLOADS,
    timeout_storm,
)
from repro.crypto import reset_verification_cache, verification_cache_stats


def test_sim_kernel_throughput(benchmark):
    rows = [
        (name, measure_workload(fn, EVENTS, rounds=3))
        for name, fn in WORKLOADS
    ]

    benchmark.pedantic(timeout_storm, args=(EVENTS,), rounds=3, iterations=1)

    # The kernel must sustain at least 100k events/s on any host this
    # runs on — far below typical, but catches pathological regressions.
    for name, rate in rows:
        assert rate > 100_000, f"{name}: {rate:.0f} events/s"


def test_verification_cache_effective_on_transferable_auth():
    """Chain replication re-verifies forwarded attestations, so the
    verification cache must show real hits — and none of them may leak
    across virtual-time semantics (the tier-1 golden-trace test pins
    that separately)."""
    from repro.bench import kv_workload
    from repro.systems.chain import ChainReplication

    reset_verification_cache()
    system = ChainReplication("tnic", chain_length=3, seed=5)
    system.run_workload(kv_workload(10, read_fraction=0.3, value_bytes=60,
                                    seed=5))
    stats = verification_cache_stats()
    assert stats["hits"] > 0, stats
    assert 0.0 < stats["hit_rate"] < 1.0, stats
