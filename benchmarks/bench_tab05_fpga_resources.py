"""Table 5 — FPGA resource usage of the TNIC design on the U280.

Paper results: the overall design consumes 16.6% of LUTs, 16.3% of
flip-flops and 16.6% of RAMB36; the attestation kernel's utilisation
(2.6% LUT / 2.2% FF / 4.0% RAMB36) is comparable to XDMA and RoCE.
"""

from conftest import register_artefact

from repro.bench.report import Table
from repro.core.resources import (
    ATTESTATION_KERNEL,
    CMAC,
    ROCE_KERNEL,
    U280,
    XDMA,
    FpgaModel,
)

COMPONENTS = [
    ("XDMA", XDMA),
    ("Att. kernel", ATTESTATION_KERNEL),
    ("RoCE", ROCE_KERNEL),
    ("CMAC", CMAC),
]


def measure():
    model = FpgaModel()
    design = model.design_usage(connections=1)
    return design, design.fraction_of(U280)


def test_tab05_fpga_resources(benchmark):
    design, fractions = benchmark.pedantic(measure, rounds=5, iterations=1)

    # Full-design utilisation matches Table 5 (16.6 / 16.3 / 16.6 %).
    assert fractions["lut"] == pytest_approx(0.166, abs=0.005)
    assert fractions["ff"] == pytest_approx(0.163, abs=0.005)
    assert fractions["ramb36"] == pytest_approx(0.166, abs=0.005)
    # The attestation kernel's footprint is comparable to XDMA / RoCE.
    assert ATTESTATION_KERNEL.lut < 1.5 * XDMA.lut
    assert ATTESTATION_KERNEL.ff < 1.5 * ROCE_KERNEL.ff

    table = Table(
        "Table 5: TNIC resource usage on the U280",
        ["component", "LUT", "LUT %", "FF", "FF %", "RAMB36", "RAMB36 %"],
    )
    table.add_row("U280 capacity", f"{U280.lut:,}", "100",
                  f"{U280.ff:,}", "100", U280.ramb36, "100")
    table.add_row(
        "TNIC (full design)",
        f"{design.lut:,}", f"{100 * fractions['lut']:.1f}",
        f"{design.ff:,}", f"{100 * fractions['ff']:.1f}",
        design.ramb36, f"{100 * fractions['ramb36']:.1f}",
    )
    for name, usage in COMPONENTS:
        share = usage.fraction_of(U280)
        table.add_row(
            name,
            f"{usage.lut:,}", f"{100 * share['lut']:.1f}",
            f"{usage.ff:,}", f"{100 * share['ff']:.1f}",
            usage.ramb36, f"{100 * share['ramb36']:.1f}",
        )
    register_artefact("Table 5", table.render())


def pytest_approx(value, **kwargs):
    import pytest

    return pytest.approx(value, **kwargs)
