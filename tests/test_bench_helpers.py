"""Tests for the benchmark harness utilities."""

import pytest

from repro.bench import (
    PACKET_SIZE_SWEEP,
    kv_workload,
    packet_sweep,
    zipfian_keys,
)
from repro.bench.report import Series, Table, format_ratio, render_figure


def test_packet_sweep_doubles():
    assert packet_sweep(64, 1024) == [64, 128, 256, 512, 1024]
    assert PACKET_SIZE_SWEEP[0] == 64 and PACKET_SIZE_SWEEP[-1] == 16384


def test_packet_sweep_validation():
    with pytest.raises(ValueError):
        packet_sweep(0, 10)
    with pytest.raises(ValueError):
        packet_sweep(128, 64)


def test_zipfian_keys_skewed_and_deterministic():
    keys = zipfian_keys(2000, key_space=100, seed=7)
    assert zipfian_keys(2000, key_space=100, seed=7) == keys
    counts = {}
    for key in keys:
        counts[key] = counts.get(key, 0) + 1
    # The hottest key dominates under skew 0.99.
    assert counts.get("key0", 0) > counts.get("key50", 0)


def test_zipfian_validation():
    with pytest.raises(ValueError):
        zipfian_keys(-1)
    with pytest.raises(ValueError):
        zipfian_keys(5, key_space=0)


def test_kv_workload_mix_and_sizes():
    requests = kv_workload(200, read_fraction=0.5, value_bytes=60, seed=1)
    assert len(requests) == 200
    ops = {r.op for r in requests}
    assert ops == {"put", "get"}
    puts = [r for r in requests if r.op == "put"]
    assert all(len(r.value) == 60 for r in puts)


def test_kv_workload_validation():
    with pytest.raises(ValueError):
        kv_workload(10, read_fraction=1.5)


def test_table_render_and_row_validation():
    table = Table("Demo", ["system", "ops"])
    table.add_row("tnic", 123)
    text = table.render()
    assert "Demo" in text and "tnic" in text and "123" in text
    with pytest.raises(ValueError):
        table.add_row("only-one-cell")


def test_series_and_figure_render():
    a = Series("TNIC")
    a.add(64, 15.5)
    a.add(128, 16.8)
    b = Series("RDMA-hw")
    b.add(64, 5.1)
    text = render_figure("Fig 9", "size", "latency (us)", [a, b])
    assert "TNIC" in text and "RDMA-hw" in text
    assert "15.50" in text
    assert "-" in text  # missing point for RDMA-hw at 128


def test_format_ratio():
    assert format_ratio(10, 2) == "5.0x"
    assert format_ratio(1, 0) == "n/a"
