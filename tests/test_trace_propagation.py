"""Causal cross-replica tracing: the carried span, trace trees,
critical paths, and their determinism."""

import json
from types import SimpleNamespace

import pytest

from repro.api import Cluster, auth_send
from repro.api.ops import recv
from repro.cli import _instrumented_bft, _instrumented_workload, main
from repro.sim.clock import Simulator
from repro.net.fabric import NetworkFault
from repro.net.packet import RdmaOpcode
from repro.sim.instrument import NULL_SPAN, span_begin
from repro.sim.latency import SYSTEM_NET_HOP_US
from repro.systems.bft import BftCounter
from repro.systems.common import Client, EmulatedNetwork, Envelope, Station
from repro.telemetry import Telemetry
from repro.telemetry.critical_path import (
    STAGE_ORDER,
    critical_paths,
    stage_of,
    summarize,
)
from tests.test_station import _OneStage


# ----------------------------------------------------------------------
# The carried span: one packet field, one parent rule
# ----------------------------------------------------------------------
def _send_one(attach: bool):
    """One 64 B ``auth_send`` a -> b; the hub (or None), what b
    received and every packet the fabric carried."""
    carried = []
    cluster = Cluster(["a", "b"], fault=NetworkFault(tamper=carried.append),
                      seed=0)
    hub = Telemetry.attach(cluster.sim) if attach else None
    conn_a, conn_b = cluster.connect("a", "b")
    cluster.run(auth_send(conn_a, b"x" * 64))
    cluster.run()
    return hub, recv(conn_b), carried


def test_detached_every_carrier_stays_untouched(monkeypatch):
    """No hub: nothing rides in a work request, a packet, a delivery or
    a system message.  A packet carries the span the device handed the
    transport, which the device opened under the work request's, so a
    span at any stage of the send would show on the wire."""
    submits = []
    real_submit = Station._submit

    def submit(self, item, arrive, hop):
        submits.append((item, hop))
        return real_submit(self, item, arrive, hop)

    monkeypatch.setattr(Station, "_submit", submit)
    BftCounter("tnic", f=1, seed=0).run_workload(2)
    assert submits
    # A send files a hop timeout, whose value is an Envelope that may
    # carry a span, only with telemetry attached.
    assert not any(type(item) is Envelope or hop is not None
                   for item, hop in submits)
    _, delivered, packets = _send_one(attach=False)
    assert packets and all(packet.span is None for packet in packets)
    # A delivery has no field a span could ride in.
    assert set(delivered) == {"payload", "message", "opcode", "msn"}


def test_a_traced_send_to_a_station_ends_its_hop_span():
    """A station's stage gets the bare message; the hop span under the
    sender's ends on arrival."""
    sim = Simulator()
    hub = Telemetry.attach(sim)
    network = EmulatedNetwork(sim)
    seen = _OneStage(network, "n", stage_us=3.0).served
    parent = span_begin(sim, "request.auth_send")
    network.send("n", "message", parent=parent)
    sim.run()
    assert seen == [(SYSTEM_NET_HOP_US + 3.0, "message")]
    (hop,) = [span for span in hub.spans.finished
              if span.name == "system.net_hop"]
    assert hop.parent_id == parent.span_id
    assert (hop.start_us, hop.end_us) == (0.0, SYSTEM_NET_HOP_US)


class _Recorder(Client):
    """A client that records each reply with its hop span's state."""

    def __init__(self, network):
        super().__init__(SimpleNamespace(network=network), "client")
        self.seen = []

    def received(self, message, parent):
        self.seen.append((self.sim.now, message, parent.end_us))


def test_a_traced_reply_reaches_its_client_in_the_hop_entry_before_the_span_ends():
    """A client's reply is one entry traced or not: with telemetry the
    hop's own, whose first callback runs the client's step while the
    hop span is still open."""
    sim = Simulator()
    hub = Telemetry.attach(sim)
    network = EmulatedNetwork(sim)
    client = _Recorder(network)
    parent = span_begin(sim, "request.auth_send")
    entries = len(sim._heap)
    network.send("client", "reply", parent=parent)
    assert len(sim._heap) == entries + 1
    sim.run()
    assert client.seen == [(SYSTEM_NET_HOP_US, "reply", None)]
    (hop,) = [span for span in hub.spans.finished
              if span.name == "system.net_hop"]
    assert hop.parent_id == parent.span_id
    assert (hop.start_us, hop.end_us) == (0.0, SYSTEM_NET_HOP_US)


class _Lookalike:
    """A span's identity fields on something that is not a span."""

    trace_id, span_id = 1, 1


@pytest.mark.parametrize("carried", [
    None, NULL_SPAN, "garbage", 1234, _Lookalike(),
], ids=["None", "null_span", "garbage", "1234", "lookalike"])
def test_a_carried_value_that_is_not_a_span_roots_a_fresh_trace(carried):
    sim = Simulator()
    Telemetry.attach(sim)
    earlier = span_begin(sim, "request.auth_send")
    span = span_begin(sim, "roce.rx_verify", parent=carried)
    assert span.parent_id is None
    assert span.trace_id != earlier.trace_id


def test_a_carried_span_is_the_parent_of_the_next_stage():
    hub, delivered, packets = _send_one(attach=True)
    spans = [packet.span for packet in packets
             if packet.bth.opcode is RdmaOpcode.SEND]
    carried = spans[0]
    assert all(span is carried for span in spans)
    assert carried.name == "tnic.tx"
    assert delivered["payload"] == b"x" * 64
    verifies = [span for span in hub.spans.spans("roce.rx_verify")
                if span.trace_id == carried.trace_id]
    assert [span.parent_id for span in verifies] == [carried.span_id]


# ----------------------------------------------------------------------
# Cross-layer propagation: the send/recv datapath
# ----------------------------------------------------------------------
def test_sendrecv_spans_share_one_trace_per_request():
    _, hub = _instrumented_workload(3, seed=0, tamper=False)
    roots = [s for s in hub.spans.finished
             if s.name == "request.auth_send"]
    assert len(roots) == 3
    for root in roots:
        members = [s for s in hub.spans.finished
                   if s.trace_id == root.trace_id]
        names = {s.name for s in members}
        # The full Fig. 6 decomposition joined one trace — including
        # the *receiving* node's verification stage.
        assert {"request.auth_send", "tnic.post", "tnic.tx", "tnic.dma",
                "attest.hmac", "roce.tx", "roce.rx_verify"} <= names
        assert root.parent_id is None
        for span in members:
            if span is not root:
                assert span.parent_id is not None


def test_sendrecv_critical_path_stage_order_matches_fig06():
    _, hub = _instrumented_workload(4, seed=1, tamper=False)
    paths = critical_paths(hub.spans.finished)
    requests = [p for p in paths if p["root"] == "request.auth_send"]
    assert len(requests) == 4
    for path in requests:
        stages = [entry["stage"] for entry in path["stages"]]
        # Deduplicate preserving first-appearance order.
        order = list(dict.fromkeys(stages))
        assert order == list(STAGE_ORDER)
        assert set(path["breakdown"]) == set(STAGE_ORDER)
        # The spine runs root -> gating span in causal order.
        spine = path["spine"]
        assert spine[0]["name"] == "request.auth_send"
        assert all(a["start_us"] <= b["start_us"]
                   for a, b in zip(spine, spine[1:]))


# ----------------------------------------------------------------------
# Cross-replica propagation: the BFT cluster
# ----------------------------------------------------------------------
def test_bft_request_traces_span_all_replicas():
    system, hub = _instrumented_bft(4, seed=3)
    roots = [s for s in hub.spans.finished if s.name == "bft.request"]
    assert len(roots) == 4
    for root in roots:
        members = [s for s in hub.spans.finished
                   if s.trace_id == root.trace_id]
        names = {s.name for s in members}
        assert {"bft.request", "system.net_hop", "bft.leader",
                "attest.hmac", "bft.follower", "bft.rx_verify"} <= names
        # Spans from leader AND every follower joined the trace.
        nodes = {s.labels.get("node") for s in members
                 if "node" in s.labels}
        assert nodes == {system.leader_name, *system.followers}


def test_bft_critical_path_alternates_hops_and_replica_work():
    _, hub = _instrumented_bft(4, seed=3)
    paths = critical_paths(hub.spans.finished)
    committed = [p for p in paths if p["root"] == "bft.request"
                 and p["labels"].get("status") == "committed"]
    assert len(committed) == 4
    for path in committed:
        spine_names = [hop["name"] for hop in path["spine"]]
        # client -> leader hop -> leader -> follower hop -> follower
        # -> reply hop: the protocol's causal chain.
        assert spine_names == [
            "bft.request", "system.net_hop", "bft.leader",
            "system.net_hop", "bft.follower", "system.net_hop",
        ]
        assert {"hmac", "wire", "rx_verify"} <= set(path["breakdown"])
        # Stage instances along the chain keep taxonomy order within
        # each replica: verification precedes the replica's own attest.
        follower_stages = [e for e in path["stages"]
                           if e["name"] in ("bft.rx_verify", "attest.hmac")]
        assert follower_stages, "stage entries missing"


def test_bft_critical_paths_byte_identical_across_runs():
    documents = []
    for _ in range(2):
        _, hub = _instrumented_bft(5, seed=7)
        paths = critical_paths(hub.spans.finished)
        documents.append(json.dumps(
            {"critical_paths": paths, "summary": summarize(paths)},
            indent=2, sort_keys=True,
        ))
    assert documents[0] == documents[1]


def test_sendrecv_trace_trees_byte_identical_across_runs():
    trees = []
    for _ in range(2):
        _, hub = _instrumented_workload(5, seed=11, tamper=False)
        trees.append(hub.spans.tree())
    assert trees[0] == trees[1]
    assert "request.auth_send" in trees[0]


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
def test_trace_cli_critical_path_deterministic(capsys):
    outputs = []
    for _ in range(2):
        assert main(["trace", "--scenario", "bft", "--ops", "3",
                     "--seed", "3", "--critical-path", "--summary"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert "bft.request" in outputs[0]
    assert "stages:" in outputs[0]
    assert "requests: 3" in outputs[0]


def test_trace_cli_analysis_document(tmp_path, capsys):
    out = tmp_path / "analysis.json"
    assert main(["trace", "--ops", "2", "--critical-path",
                 "--output", str(out)]) == 0
    capsys.readouterr()
    document = json.loads(out.read_text())
    assert set(document) == {"critical_paths", "summary"}
    assert document["summary"]["requests"] == 2
    for path in document["critical_paths"]:
        assert {"trace", "root", "spine", "stages",
                "breakdown"} <= set(path)


def test_stage_of_taxonomy():
    assert stage_of("tnic.post") == "post"
    assert stage_of("tnic.dma") == "dma"
    assert stage_of("attest.hmac") == "hmac"
    assert stage_of("roce.tx") == "wire"
    assert stage_of("system.net_hop") == "wire"
    assert stage_of("roce.rx_verify") == "rx_verify"
    assert stage_of("bft.rx_verify") == "rx_verify"
    assert stage_of("bft.request") == "other"
