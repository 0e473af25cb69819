"""Tests for the deterministic observability layer (repro.telemetry)."""

import json
from pathlib import Path

import pytest

from repro.cli import _instrumented_workload, main
from repro.sim.clock import Simulator
from repro.sim.instrument import (
    NULL_SPAN,
    count,
    flight_trigger,
    gauge_set,
    observe,
    span_begin,
)
from repro.telemetry import Telemetry
from repro.telemetry.metrics import (
    BYTE_BUCKET_BOUNDS,
    Counter,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.spans import SpanTracker


# ----------------------------------------------------------------------
# Metrics primitives
# ----------------------------------------------------------------------
def test_counter_monotonic():
    counter = Counter("c")
    counter.inc()
    counter.inc(2.5)
    assert counter.value == 3.5
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_histogram_quantiles_clamped_to_observed_range():
    hist = Histogram("h", bounds=(10.0, 20.0, 40.0))
    for value in (12.0, 14.0, 16.0, 18.0):
        hist.observe(value)
    assert hist.count == 4
    assert hist.quantile(0.0) == 12.0  # clamped to observed min
    assert hist.quantile(1.0) == 18.0  # clamped to observed max
    assert 12.0 <= hist.quantile(0.5) <= 18.0
    with pytest.raises(ValueError):
        hist.quantile(1.5)


def test_histogram_overflow_bucket():
    hist = Histogram("h", bounds=(1.0, 2.0))
    hist.observe(100.0)
    assert hist.bucket_counts[-1] == 1
    assert hist.quantile(0.99) == 100.0
    summary = hist.to_dict()
    assert summary["buckets"] == {"le_inf": 1}


def test_registry_label_order_is_canonical():
    registry = MetricsRegistry()
    a = registry.counter("pkts", node="a", qp=1)
    b = registry.counter("pkts", qp=1, node="a")
    assert a is b  # kwarg order must not create a second series


def test_registry_rejects_kind_conflicts():
    registry = MetricsRegistry()
    registry.counter("roce.tx")
    with pytest.raises(ValueError):
        registry.histogram("roce.tx")


def test_byte_suffix_selects_byte_buckets():
    sim = Simulator()
    hub = Telemetry.attach(sim)
    hub.observe("dma.size_bytes", 4096)
    series = hub.registry.histogram("dma.size_bytes")
    assert series.bounds == BYTE_BUCKET_BOUNDS


# ----------------------------------------------------------------------
# Hook layer: detached hooks are no-ops
# ----------------------------------------------------------------------
def test_hooks_are_noops_without_hub():
    sim = Simulator()  # no Telemetry.attach
    count(sim, "x")
    gauge_set(sim, "x2", 1.0)
    observe(sim, "y", 1.0)
    flight_trigger(sim, "z", reason="unit-test")
    span = span_begin(sim, "stage")
    assert span is NULL_SPAN
    assert not span
    span.child("nested").end()
    span.end(status="ok")  # all silently inert


def test_hooks_dispatch_to_attached_hub():
    sim = Simulator()
    hub = Telemetry.attach(sim)
    count(sim, "x", 2, node="n1")
    gauge_set(sim, "depth", 7)
    observe(sim, "lat", 5.0)
    snapshot = hub.registry.snapshot()
    assert snapshot["counters"]["x{node=n1}"] == 2.0
    assert snapshot["gauges"]["depth"] == 7
    assert snapshot["histograms"]["lat"]["count"] == 1


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def _advance(sim, delta):
    sim.run(sim.now + delta)


def test_span_nesting_and_tree():
    sim = Simulator()
    tracker = SpanTracker(sim, MetricsRegistry())
    root = tracker.begin("tnic.tx", device=1)
    _advance(sim, 4.0)
    stage = root.child("attest.hmac")
    _advance(sim, 6.0)
    stage.end()
    root.end(status="ok")
    assert [s.name for s in tracker.finished] == ["attest.hmac", "tnic.tx"]
    child, parent = tracker.finished
    assert child.parent_id == parent.span_id
    assert child.duration_us == 6.0
    assert parent.duration_us == 10.0
    tree = tracker.tree()
    lines = tree.splitlines()
    assert lines[0].startswith("tnic.tx")
    assert lines[1].startswith("  attest.hmac")


def test_span_end_is_idempotent_and_feeds_histogram():
    sim = Simulator()
    registry = MetricsRegistry()
    tracker = SpanTracker(sim, registry)
    span = tracker.begin("stage")
    _advance(sim, 3.0)
    span.end()
    span.end()  # second close is a no-op
    assert registry.histogram("stage").count == 1


def test_span_eviction_accounting():
    sim = Simulator()
    tracker = SpanTracker(sim, MetricsRegistry(), capacity=2)
    for i in range(5):
        tracker.begin(f"s{i}").end()
    assert len(tracker.finished) == 2
    assert tracker.evicted == 3


# ----------------------------------------------------------------------
# End-to-end determinism: the headline guarantee
# ----------------------------------------------------------------------
def test_two_seeded_runs_are_byte_identical():
    _, hub_a = _instrumented_workload(ops=8, seed=3, tamper=False)
    _, hub_b = _instrumented_workload(ops=8, seed=3, tamper=False)
    assert hub_a.render_json() == hub_b.render_json()
    assert hub_a.spans.tree() == hub_b.spans.tree()
    assert hub_a.render_prometheus() == hub_b.render_prometheus()


def test_workload_covers_fig06_stages():
    _, hub = _instrumented_workload(ops=6, seed=0, tamper=False)
    document = hub.document()
    histograms = document["metrics"]["histograms"]
    for stage in ("tnic.tx", "tnic.dma", "attest.hmac", "roce.tx",
                  "tnic.post", "roce.rx_verify"):
        assert stage in histograms, stage
        assert histograms[stage]["count"] >= 6
        assert histograms[stage]["p50"] <= histograms[stage]["p99"]
    # Stage spans nest under the root: the root must dominate them.
    assert histograms["tnic.tx"]["mean"] >= histograms["attest.hmac"]["mean"]


# ----------------------------------------------------------------------
# Flight recorder
# ----------------------------------------------------------------------
def test_flight_recorder_captures_rejection(tmp_path):
    cluster, hub = _instrumented_workload(ops=4, seed=1, tamper=True)
    assert len(hub.recorder) >= 1
    events = [snap["event"] for snap in hub.recorder.snapshots]
    assert "attest.reject" in events
    first = hub.recorder.snapshots[0]
    assert first["context"]["reason"] == "mac"
    assert first["trace_tail"], "trace tail must capture the lead-up"
    assert "counters" in first["metrics"]
    # Despite the tamper, go-back-N redelivered every message.
    delivered = hub.registry.counter("roce.rx_delivered", node="10.0.0.2")
    assert delivered.value == 4
    # The black box round-trips through JSON.
    path = tmp_path / "blackbox.json"
    hub.recorder.dump(path)
    payload = json.loads(Path(path).read_text())
    assert payload["snapshots"][0]["event"] == "attest.reject"


def test_flight_recorder_state_providers_and_bounds():
    sim = Simulator()
    hub = Telemetry.attach(sim, max_snapshots=2)
    hub.recorder.add_state_provider("fixed", lambda: {"k": 1})
    for i in range(4):
        flight_trigger(sim, "invariant", index=i)
    assert len(hub.recorder) == 2
    assert hub.recorder.overflowed == 2
    assert hub.recorder.snapshots[0]["state"]["fixed"] == {"k": 1}


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
def test_prometheus_rendering_shape():
    _, hub = _instrumented_workload(ops=4, seed=0, tamper=False)
    text = hub.render_prometheus()
    assert "# TYPE tnic_attest_hmac histogram" in text
    assert text.splitlines()[-1].startswith("tnic_clock_us ")
    # Cumulative bucket counts must be monotonic up to _count.
    counts = [
        int(line.rsplit(" ", 1)[1])
        for line in text.splitlines()
        if line.startswith("tnic_attest_hmac_bucket")
    ]
    assert counts == sorted(counts)
    assert counts[-1] == 4


# ----------------------------------------------------------------------
# CLI subcommands
# ----------------------------------------------------------------------
def test_metrics_command_json_has_percentiles(capsys):
    assert main(["metrics", "--json", "--ops", "6"]) == 0
    document = json.loads(capsys.readouterr().out)
    for stage in ("attest.hmac", "roce.tx"):
        summary = document["metrics"]["histograms"][stage]
        assert summary["count"] == 6
        assert summary["p50"] > 0
        assert summary["p99"] >= summary["p50"]


def test_metrics_command_is_deterministic(capsys):
    assert main(["metrics", "--json", "--ops", "5"]) == 0
    first = capsys.readouterr().out
    assert main(["metrics", "--json", "--ops", "5"]) == 0
    assert capsys.readouterr().out == first


def test_metrics_command_prom_and_text(capsys):
    assert main(["metrics", "--prom", "--ops", "3"]) == 0
    assert "# TYPE tnic_roce_tx histogram" in capsys.readouterr().out
    assert main(["metrics", "--ops", "3", "--spans"]) == 0
    out = capsys.readouterr().out
    assert "-- histograms (us) --" in out
    assert "tnic.tx" in out


def test_trace_command_category_filter(capsys):
    assert main(["trace", "--ops", "3", "--category", "roce."]) == 0
    out = capsys.readouterr().out
    body, summary = out.rstrip().rsplit("\n", 1)
    assert summary.startswith("trace: emitted=")
    for line in body.splitlines():
        assert "roce." in line
    assert "delivered" in body


def test_trace_command_tamper_shows_rejection(capsys):
    assert main(["trace", "--ops", "2", "--tamper",
                 "--category", "attest."]) == 0
    assert "attest.reject" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Prometheus label escaping
# ----------------------------------------------------------------------
def test_prometheus_label_escaping():
    from repro.telemetry.exporters import _prom_escape

    assert _prom_escape('plain') == 'plain'
    assert _prom_escape('say "hi"') == 'say \\"hi\\"'
    assert _prom_escape('back\\slash') == 'back\\\\slash'
    assert _prom_escape('line\nbreak') == 'line\\nbreak'
    # Backslash first: escaping the quote must not double-escape.
    assert _prom_escape('\\"') == '\\\\\\"'


def test_prometheus_rendering_escapes_hostile_labels():
    sim = Simulator()
    hub = Telemetry.attach(sim)
    hub.count("attack.surface", node='evil"name\nwith\\stuff')
    text = hub.render_prometheus()
    line = next(l for l in text.splitlines()
                if l.startswith("tnic_attack_surface"))
    assert line == (
        'tnic_attack_surface{node="evil\\"name\\nwith\\\\stuff"} 1'
    )
    # The exposition stays one-metric-per-line: no raw newline leaked.
    assert 'evil"name' not in text
