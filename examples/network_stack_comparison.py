#!/usr/bin/env python3
"""Network-stack comparison: the §8.2 experiment as a script.

Sweeps packet sizes over the five stacks of Figures 8-9 and prints the
latency and throughput series, annotated with the paper's headline
ratios (RDMA-hw 3-5x under DRCT-IO; TNIC 3-20x over RDMA-hw;
DRCT-IO-att collapsing past 521 B).

Run:  python examples/network_stack_comparison.py
"""

from repro.bench import PACKET_SIZE_SWEEP
from repro.bench.report import Series, format_ratio, render_figure
from repro.stacks import measure_latency, measure_throughput
from repro.stacks.variants import (
    ALL_STACKS,
    DrctIoStack,
    RdmaHwStack,
    TnicStack,
)


def latency_sweep() -> None:
    series = []
    measured = {}
    for name, stack_cls in ALL_STACKS.items():
        line = Series(name)
        for size in PACKET_SIZE_SWEEP:
            result = measure_latency(stack_cls, size, operations=50)
            line.add(size, result.latency_us)
            measured[(name, size)] = result.latency_us
        series.append(line)
    print(render_figure("Send latency (Figure 9)", "bytes", "us", series))
    print()
    print("headline ratios:")
    print(
        "  DRCT-IO / RDMA-hw @64B:   ",
        format_ratio(measured[("DRCT-IO", 64)], measured[("RDMA-hw", 64)]),
        "(paper: 3x-5x)",
    )
    print(
        "  TNIC / RDMA-hw @64B/16KiB:",
        format_ratio(measured[("TNIC", 64)], measured[("RDMA-hw", 64)]),
        "/",
        format_ratio(measured[("TNIC", 16384)], measured[("RDMA-hw", 16384)]),
        "(paper: 3x-20x)",
    )
    print(
        "  DRCT-IO-att / TNIC @64B:  ",
        format_ratio(measured[("DRCT-IO-att", 64)], measured[("TNIC", 64)]),
        "(paper: up to 5.6x)",
    )
    print()


def throughput_sweep() -> None:
    series = []
    for stack_cls in (RdmaHwStack, DrctIoStack, TnicStack):
        line = Series(stack_cls.name)
        for size in PACKET_SIZE_SWEEP:
            result = measure_throughput(
                stack_cls, size, operations=400, outstanding=32
            )
            line.add(size, result.throughput_ops / 1e3)
        series.append(line)
    print(render_figure("Send throughput (Figure 8)", "bytes", "Kop/s",
                        series))


def main() -> None:
    latency_sweep()
    throughput_sweep()


if __name__ == "__main__":
    main()
