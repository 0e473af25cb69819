"""Figure 13 — TNIC hardware scalability vs number of connections.

Paper result: only the attestation kernel replicates per connection
(XDMA and CMAC are connection-independent; one RoCE kernel serves up
to 500 connections), and the design supports **up to 32 concurrent
connections** on a single U280.
"""

from conftest import register_artefact

from repro.bench.report import Series, render_figure
from repro.core.resources import FpgaModel

SWEEP = [1, 2, 4, 8, 16, 24, 32]


def measure():
    model = FpgaModel()
    utilisation = {n: model.utilisation(n) for n in SWEEP}
    return utilisation, model.max_connections()


def test_fig13_scalability(benchmark):
    utilisation, max_connections = benchmark.pedantic(
        measure, rounds=5, iterations=1
    )

    # "TNIC can support up to 32 concurrent connections on a single
    # U280 FPGA."
    assert max_connections == 32
    # Utilisation grows monotonically with connections and stays within
    # the device at 32.
    for resource in ("lut", "ff", "ramb36"):
        values = [utilisation[n][resource] for n in SWEEP]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] <= 1.0
    # At 32 connections the binding resource is nearly exhausted.
    assert max(utilisation[32].values()) > 0.9

    series = []
    for resource, label in (("lut", "LUT"), ("ff", "FF"), ("ramb36", "RAMB36")):
        line = Series(label)
        for n in SWEEP:
            line.add(n, 100 * utilisation[n][resource])
        series.append(line)
    register_artefact(
        "Figure 13",
        render_figure(
            "Figure 13: resource usage vs connections "
            f"(max supported: {max_connections})",
            "connections", "% of U280", series,
        ),
    )
