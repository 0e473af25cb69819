"""Unit tests for smaller surfaces: latency helpers, FPGA model bounds,
metrics accounting, and API error paths."""

import pytest

from repro.api import Cluster
from repro.core.resources import FpgaModel, ResourceUsage, U280
from repro.sim import latency as cal
from repro.systems.common import SystemMetrics


# ---------------------------------------------------------------------------
# Latency helpers
# ---------------------------------------------------------------------------

def test_latency_functions_reject_negative_sizes():
    with pytest.raises(ValueError):
        cal.tnic_hmac_pipeline_us(-1)
    with pytest.raises(ValueError):
        cal.tnic_path_hmac_us(-1)


def test_attest_breakdown_unknown_system():
    with pytest.raises(ValueError):
        cal.attest_breakdown("mystery")


def test_breakdown_shares_sum_to_one():
    for system in ("tnic", "sgx", "ssl-server", "amd-sev"):
        b = cal.attest_breakdown(system)
        total_share = (
            b.share("transfer") + b.share("compute") + b.share("other")
        )
        assert total_share == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# FPGA model
# ---------------------------------------------------------------------------

def test_resource_usage_arithmetic():
    a = ResourceUsage(10, 20, 2)
    b = ResourceUsage(1, 2, 1)
    assert a + b == ResourceUsage(11, 22, 3)
    assert b.scaled(3) == ResourceUsage(3, 6, 3)
    with pytest.raises(ValueError):
        b.scaled(-1)
    assert b.fits_in(a)
    assert not a.fits_in(b)


def test_fpga_model_rejects_zero_connections():
    with pytest.raises(ValueError):
        FpgaModel().design_usage(0)


def test_fpga_model_second_roce_kernel_beyond_500():
    model = FpgaModel(capacity=ResourceUsage(10**9, 10**9, 10**9))
    low = model.design_usage(500)
    high = model.design_usage(501)
    from repro.core.resources import ROCE_KERNEL, ATTESTATION_REPLICA_INCREMENT

    extra = high.lut - low.lut
    assert extra == ROCE_KERNEL.lut + ATTESTATION_REPLICA_INCREMENT.lut


def test_single_connection_matches_table5_total():
    usage = FpgaModel().design_usage(1)
    assert usage.lut == 216_905
    assert usage.ff == 423_891
    assert usage.ramb36 == 335
    assert usage.fits_in(U280)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def test_metrics_empty_defaults():
    metrics = SystemMetrics()
    assert metrics.throughput_ops == 0.0
    assert metrics.mean_latency_us == 0.0
    assert metrics.percentile_latency_us(0.99) == 0.0


def test_metrics_accounting():
    metrics = SystemMetrics()
    metrics.started_at = 0.0
    for latency in (10.0, 20.0, 30.0):
        metrics.record(latency)
    metrics.finished_at = 60.0
    assert metrics.committed == 3
    assert metrics.mean_latency_us == 20.0
    assert metrics.throughput_ops == pytest.approx(3 / 60e-6)
    assert metrics.percentile_latency_us(0.0) == 10.0
    assert metrics.percentile_latency_us(0.99) == 30.0


# ---------------------------------------------------------------------------
# API error paths
# ---------------------------------------------------------------------------

def test_stage_requires_tx_region():
    from repro.api.connection import IbvConnection
    from repro.roce.queue_pair import QueuePair

    cluster = Cluster(["a", "b"])
    session_id, _ = cluster.sessions.new_session()
    conn = IbvConnection(
        node=cluster["a"],
        qp=QueuePair(qp_number=1, session_id=session_id,
                     local_ip="10.0.0.1", remote_ip="10.0.0.2"),
    )
    with pytest.raises(RuntimeError, match="no tx region"):
        conn.stage(b"x")
