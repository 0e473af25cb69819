"""Benchmark harness utilities.

* :mod:`~repro.bench.workload` — workload generators (packet-size
  sweeps, KV request streams, increment batches) used by the per-figure
  benchmarks.
* :mod:`~repro.bench.report` — plain-text table/series renderers that
  print benchmark results in the same rows/series the paper reports.
  Imported from its module, not from here: only the per-figure
  benchmarks and the CLI print tables.
"""

from repro.bench.workload import (
    PACKET_SIZE_SWEEP,
    kv_workload,
    packet_sweep,
    zipfian_keys,
)

__all__ = [
    "PACKET_SIZE_SWEEP",
    "kv_workload",
    "packet_sweep",
    "zipfian_keys",
]
