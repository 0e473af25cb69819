"""Ablation — byte-serial HMAC vs a hypothetical parallel MAC.

§8.2 attributes TNIC's latency growth to the HMAC: "As this algorithm
fundamentally cannot be parallelized, the higher the message size, the
higher the latency our TNIC incurs."  This ablation quantifies what a
parallelisable MAC (e.g. a Carter-Wegman/GMAC-style engine with k
lanes) would buy: the per-byte term divides by the lane count while the
RoCE datapath cost is unchanged, flattening the TNIC curve toward
RDMA-hw at large packets.
"""

from conftest import register_artefact

from repro.bench import PACKET_SIZE_SWEEP
from repro.bench.report import Series, render_figure
from repro.sim import latency as cal

LANES = [1, 4, 16]


def tnic_send_with_lanes(size: int, lanes: int) -> float:
    hmac = cal.TNIC_PATH_HMAC_BASE_US + cal.TNIC_HMAC_PER_BYTE_US * size / lanes
    return cal.rdma_hw_send_us(size) + hmac


def measure():
    return {
        lanes: {size: tnic_send_with_lanes(size, lanes)
                for size in PACKET_SIZE_SWEEP}
        for lanes in LANES
    }


def test_ablation_parallel_hmac(benchmark):
    results = benchmark.pedantic(measure, rounds=5, iterations=1)

    serial = results[1]
    wide = results[16]
    # 1 lane reproduces the paper's TNIC curve (3x-20x over RDMA-hw).
    assert serial[16384] / cal.rdma_hw_send_us(16384) > 15
    # 16 lanes collapse the large-packet overhead dramatically.
    assert wide[16384] < 0.2 * serial[16384]
    # ...but small-packet latency barely moves (base cost dominates).
    assert wide[64] > 0.85 * serial[64]

    series = [Series("RDMA-hw (no MAC)")]
    for size in PACKET_SIZE_SWEEP:
        series[0].add(size, cal.rdma_hw_send_us(size))
    for lanes in LANES:
        line = Series(f"TNIC {lanes}-lane MAC")
        for size in PACKET_SIZE_SWEEP:
            line.add(size, results[lanes][size])
        series.append(line)
    register_artefact(
        "Ablation: parallel HMAC",
        render_figure("Ablation: MAC parallelism", "bytes", "latency (us)",
                      series),
    )
