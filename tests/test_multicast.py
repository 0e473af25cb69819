"""Tests for equivocation-free multicast (§6.1)."""

import dataclasses

import pytest

from repro.api import Cluster, auth_send
from repro.api.multicast import (
    EquivocationDetected,
    MulticastGroup,
    decode_attested,
    encode_attested,
)
from repro.core.attestation import AttestedMessage
from repro.crypto.hashing import sha256
from repro.sim.clock import Simulator
from repro.systems.common import BroadcastAuthenticator
from repro.tee.providers import make_provider


def make_group(n_receivers=2):
    names = ["leader"] + [f"f{i}" for i in range(n_receivers)]
    cluster = Cluster(names)
    group = MulticastGroup.create(cluster, "leader", names[1:])
    return cluster, group


def deliver_all(cluster, group):
    """Drain every receiver; returns {receiver_index: [payloads]}."""
    out = {}
    for i, receiver in enumerate(group.receivers):
        payloads = []
        while True:
            event = receiver.deliver()
            if event is None:
                break
            payloads.append(cluster.run(event))
        out[i] = payloads
    return out


def test_frame_roundtrip():
    message = AttestedMessage(
        payload=b"data", alpha=b"a" * 32, session_id=5, device_id=9,
        counter=17,
    )
    assert decode_attested(encode_attested(message)) == message


def test_frame_truncation_rejected():
    with pytest.raises(EquivocationDetected):
        decode_attested(b"short")
    message = AttestedMessage(b"x", b"a" * 32, 1, 1, 0)
    frame = encode_attested(message)
    with pytest.raises(EquivocationDetected):
        decode_attested(frame[:20])


def test_multicast_delivers_identical_payload_everywhere():
    cluster, group = make_group(2)

    def run():
        yield from group.send(b"decision-0")
        yield from group.send(b"decision-1")

    cluster.run(cluster.sim.process(run()))
    cluster.run()
    delivered = deliver_all(cluster, group)
    assert delivered[0] == [b"decision-0", b"decision-1"]
    assert delivered[1] == [b"decision-0", b"decision-1"]


def test_single_attestation_per_multicast():
    """One local_send per group send: the counter advances once no
    matter how many receivers."""
    cluster, group = make_group(3)

    def run():
        first = yield from group.send(b"a")
        second = yield from group.send(b"b")
        return first, second

    first, second = cluster.run(cluster.sim.process(run()))
    assert first.counter == 0
    assert second.counter == 1


@pytest.mark.parametrize("attack, anomaly, reason", [
    # A dropped multicast surfaces as a counter gap (no silent
    # divergence between receivers).
    pytest.param("drop", "counter-gap expected=0 got=1",
                 "equivocation or replay", id="drop"),
    pytest.param("replay", "counter-gap expected=1 got=0",
                 "equivocation or replay", id="replay"),
    pytest.param("tamper-alpha", "bad-mac@1", "attestation failed",
                 id="tamper-alpha"),
    # A receiver holds the session key too, but its device stamps its
    # own id into α.
    pytest.param("foreign-device", "wrong-device expected=1 got=2",
                 "not the sender's device", id="foreign-device"),
])
def test_receiver_rejects_broken_stream(attack, anomaly, reason):
    """A broken stream raises the one exception at the multicast
    receiver and leaves the anomaly a system's per-sender
    BroadcastAuthenticator records for the same stream."""
    cluster, group = make_group(1)
    device = group.sender_conns[0].node.device
    session = group.broadcast_session

    foreign = group.receivers[0].conn.node.device

    def run():
        m0 = yield device.local_attest(session, b"m0")
        m1 = yield device.local_attest(session, b"m1")
        stream = {
            "drop": [m1],
            "replay": [m0, m0],
            "tamper-alpha": [
                m0, dataclasses.replace(m1, alpha=bytes(len(m1.alpha))),
            ],
            "foreign-device": [(yield foreign.local_attest(session, b"m0"))],
        }[attack]
        for message in stream:
            yield auth_send(group.sender_conns[0], encode_attested(message))
        return stream

    stream = cluster.run(cluster.sim.process(run()))
    cluster.run()
    receiver = group.receivers[0]
    for _ in stream[:-1]:
        cluster.run(receiver.deliver())
    with pytest.raises(EquivocationDetected, match=reason):
        cluster.run(receiver.deliver())
    assert receiver.anomalies == [anomaly]

    sim = Simulator()
    provider = make_provider("tnic", sim, 99)
    provider.install_session(session, sha256("broadcast", "leader", session))
    auth = BroadcastAuthenticator(provider, session, device.device_id)
    outcomes = []
    for message in stream:
        auth.verify(message, lambda *outcome: outcomes.append(outcome))
        sim.run()
    assert outcomes[:-1] == [(message.payload, None)
                             for message in stream[:-1]]
    payload, violation = outcomes[-1]
    assert payload is None
    with pytest.raises(EquivocationDetected, match=reason):
        raise violation
    assert auth.anomalies == receiver.anomalies


def test_forged_frame_rejected():
    cluster, group = make_group(1)

    def run():
        yield from group.send(b"honest")

    cluster.run(cluster.sim.process(run()))
    cluster.run()
    receiver = group.receivers[0]
    from repro.api.ops import recv

    item = recv(receiver.conn)
    message = decode_attested(item["payload"])
    forged = AttestedMessage(
        payload=b"forged", alpha=message.alpha,
        session_id=message.session_id, device_id=message.device_id,
        counter=message.counter,
    )
    # Feed the forged frame through verification directly.
    sim = receiver.conn.node.sim
    done = receiver.conn.node.device.local_verify(
        receiver.broadcast_session, forged
    )
    assert cluster.run(done) is False


def test_group_requires_receivers():
    cluster = Cluster(["a", "b"])
    with pytest.raises(ValueError):
        MulticastGroup.create(cluster, "a", [])
