"""Canonical simulator-kernel workloads shared by bench and CI.

Two microworkloads exercise the kernel's distinct hot paths:

* ``timeout_storm`` — pure scheduling at a depth no paper workload
  reaches: pre-loads N timeouts while the loop is idle, then drains
  them (every push and pop pays the full heap height).
* ``process_chains`` — generator resumption: many processes each
  yielding a chain of timeouts, so every event dispatch re-enters a
  coroutine that schedules into the same instant as its peers.

The same definitions back ``benchmarks/bench_sim_kernel.py``,
``benchmarks/run_all.py`` and the CI perf-smoke gate, so a number
quoted anywhere is reproducible everywhere.  The *wall-clock timing* of
these workloads lives in ``benchmarks/kernel_measure.py`` — this module
stays pure virtual time, keeping the package DET001-clean.
"""

from __future__ import annotations

from typing import Callable

from repro.sim import Simulator

#: Events per workload run — matches the historical bench constant.
DEFAULT_EVENTS = 20_000


def timeout_storm(events: int = DEFAULT_EVENTS) -> int:
    """Schedule *events* bare timeouts up front, then drain them all."""
    sim = Simulator()
    for i in range(events):
        sim.timeout(float(i % 97))
    sim.run()
    return events


def process_chains(events: int = DEFAULT_EVENTS) -> int:
    """Processes that each await a chain of unit timeouts."""
    sim = Simulator()

    def worker(n):
        for _ in range(n):
            yield sim.timeout(1.0)

    per_proc = 200
    for _ in range(events // per_proc):
        sim.process(worker(per_proc))
    sim.run()
    return events


#: ``(workload name, callable)`` in reporting order.
WORKLOADS: list[tuple[str, Callable[[int], int]]] = [
    ("timeout_storm", timeout_storm),
    ("process_chains", process_chains),
]
