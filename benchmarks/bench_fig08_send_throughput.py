"""Figure 8 — send throughput across network stacks vs packet size.

Paper result: RDMA-hw (hardware offload) sustains the highest
throughput; DRCT-IO (software kernel-bypass) sits below it; TNIC pays
its byte-serial HMAC pipeline, with the gap widening as packets grow.
"""

from conftest import register_artefact

from repro.bench import PACKET_SIZE_SWEEP
from repro.bench.report import Series, render_figure
from repro.stacks import measure_throughput
from repro.stacks.variants import DrctIoStack, RdmaHwStack, TnicStack

STACKS = [RdmaHwStack, DrctIoStack, TnicStack]
OPERATIONS = 600
OUTSTANDING = 32


def measure():
    results = {}
    for stack_cls in STACKS:
        results[stack_cls.name] = {
            size: measure_throughput(
                stack_cls, size, operations=OPERATIONS, outstanding=OUTSTANDING
            )
            for size in PACKET_SIZE_SWEEP
        }
    return results


def test_fig08_send_throughput(benchmark):
    results = benchmark.pedantic(measure, rounds=1, iterations=1)

    for size in PACKET_SIZE_SWEEP:
        rdma = results["RDMA-hw"][size].throughput_ops
        drct = results["DRCT-IO"][size].throughput_ops
        tnic = results["TNIC"][size].throughput_ops
        # Hardware offload boosts throughput (Fig 8's ordering).
        assert rdma > drct, f"size={size}"
        assert drct > tnic or size <= 128, f"size={size}"
        # TNIC's HMAC pipeline throttles throughput as size grows.
    small_gap = (
        results["RDMA-hw"][64].throughput_ops
        / results["TNIC"][64].throughput_ops
    )
    large_gap = (
        results["RDMA-hw"][16384].throughput_ops
        / results["TNIC"][16384].throughput_ops
    )
    assert large_gap > small_gap

    series = []
    for name in ("RDMA-hw", "DRCT-IO", "TNIC"):
        line = Series(name)
        for size in PACKET_SIZE_SWEEP:
            line.add(size, results[name][size].throughput_ops / 1e3)
        series.append(line)
    register_artefact(
        "Figure 8",
        render_figure("Figure 8: send throughput", "bytes", "Kop/s", series),
    )
