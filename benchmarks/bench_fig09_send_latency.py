"""Figure 9 — send latency across five network stacks vs packet size.

Paper results reproduced here:
* RDMA-hw: 5-5.5 us small, up to ~19 us at 16 KiB (3x-5x faster than
  DRCT-IO).
* DRCT-IO: 16-16.6 us small (zero-copy up to 1460 B), ~100 us at 16 KiB.
* TNIC: 3x-20x over RDMA-hw (the byte-serial HMAC grows with size).
* DRCT-IO-att: 82 us small, collapsing to >=2000 us beyond ~521 B;
  TNIC is up to ~5.6x faster.
* TNIC-att cheaper than full TNIC (no receiver-side verification).
"""

from conftest import register_artefact

from repro.bench import PACKET_SIZE_SWEEP
from repro.bench.report import Series, render_figure
from repro.stacks import measure_latency
from repro.stacks.variants import (
    DrctIoAttStack,
    DrctIoStack,
    RdmaHwStack,
    TnicAttStack,
    TnicStack,
)

STACKS = [RdmaHwStack, DrctIoStack, DrctIoAttStack, TnicAttStack, TnicStack]
OPERATIONS = 100


def measure():
    return {
        stack_cls.name: {
            size: measure_latency(stack_cls, size, operations=OPERATIONS)
            for size in PACKET_SIZE_SWEEP
        }
        for stack_cls in STACKS
    }


def test_fig09_send_latency(benchmark):
    results = benchmark.pedantic(measure, rounds=1, iterations=1)

    lat = lambda name, size: results[name][size].latency_us

    assert 5.0 <= lat("RDMA-hw", 64) <= 5.5
    assert 17.0 <= lat("RDMA-hw", 16384) <= 19.5
    assert 16.0 <= lat("DRCT-IO", 64) <= 16.6
    assert 90.0 <= lat("DRCT-IO", 16384) <= 110.0
    for size in PACKET_SIZE_SWEEP:
        ratio = lat("DRCT-IO", size) / lat("RDMA-hw", size)
        assert 2.8 <= ratio <= 6.0, f"RDMA-hw vs DRCT-IO at {size}"
        overhead = lat("TNIC", size) / lat("RDMA-hw", size)
        assert 2.8 <= overhead <= 22.0, f"TNIC overhead at {size}"
        assert lat("TNIC-att", size) < lat("TNIC", size)
    # DRCT-IO-att: ~82us small, >=2000us collapse past ~521B.
    assert 78.0 <= lat("DRCT-IO-att", 64) <= 86.0
    assert lat("DRCT-IO-att", 1024) >= 2000.0
    assert 4.5 <= lat("DRCT-IO-att", 64) / lat("TNIC", 64) <= 6.0

    series = []
    for name in ("RDMA-hw", "DRCT-IO", "DRCT-IO-att", "TNIC-att", "TNIC"):
        line = Series(name)
        for size in PACKET_SIZE_SWEEP:
            line.add(size, lat(name, size))
        series.append(line)
    register_artefact(
        "Figure 9",
        render_figure("Figure 9: send latency", "bytes", "latency (us)", series),
    )
