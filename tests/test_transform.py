"""Tests for the generic CFT→BFT transformation recipe (§6.2)."""

import pytest

from repro.api import Cluster
from repro.api.transform import BftTransform, TransformViolation, WrappedMessage
from repro.crypto.hashing import sha256


class CounterMachine:
    """A trivial deterministic state machine (replicated counter)."""

    def __init__(self):
        self.value = 0

    def digest(self) -> bytes:
        return sha256("counter", self.value)

    def execute(self, body: bytes) -> None:
        if body != b"incr":
            raise ValueError("unknown command")
        self.value += 1

    def simulate(self, body: bytes) -> bytes:
        """Expected digest of a peer that just executed *body*."""
        if body != b"incr":
            return b"\x00" * 32
        return sha256("counter", self.value + 1)


def make_channel():
    cluster = Cluster(["sender", "receiver"])
    s_conn, r_conn = cluster.connect("sender", "receiver")
    sender_machine = CounterMachine()
    receiver_machine = CounterMachine()
    sender = BftTransform(s_conn, sender_machine.digest)
    receiver = BftTransform(
        r_conn, receiver_machine.digest,
        simulate_sender=receiver_machine.simulate,
    )
    return cluster, sender, receiver, sender_machine, receiver_machine


def test_wrapped_message_roundtrip():
    digest = sha256("s")
    wrapped = WrappedMessage(b"body", digest, sha256("r"))
    decoded = WrappedMessage.decode(wrapped.encode())
    assert decoded == wrapped


def test_wrapped_message_without_receiver_state():
    wrapped = WrappedMessage(b"body", sha256("s"))
    decoded = WrappedMessage.decode(wrapped.encode())
    assert decoded.receiver_state == b""
    assert decoded.body == b"body"


def test_wrapped_message_validation():
    with pytest.raises(ValueError):
        WrappedMessage(b"x", b"short").encode()
    with pytest.raises(TransformViolation):
        WrappedMessage.decode(b"")


def test_honest_sender_passes_all_checks():
    cluster, sender, receiver, s_machine, r_machine = make_channel()
    s_machine.execute(b"incr")  # sender acts on the request...
    cluster.run(sender.send(b"incr"))  # ...and sends evidence
    cluster.run()
    body = receiver.deliver()
    assert body == b"incr"
    r_machine.execute(body)
    assert r_machine.value == s_machine.value == 1


def test_deliver_returns_none_when_idle():
    _, __, receiver, *_ = make_channel()
    assert receiver.deliver() is None


def test_byzantine_state_detected_by_simulation():
    """Integrity: a sender whose claimed state does not match the
    deterministic simulation of its action is exposed."""
    cluster, sender, receiver, s_machine, _ = make_channel()
    s_machine.value = 41  # deviate: claims a state unreachable via 'incr'
    cluster.run(sender.send(b"incr"))
    cluster.run()
    with pytest.raises(TransformViolation, match="deviated"):
        receiver.deliver()
    assert receiver.violations == ["sender-state mismatch"]


def test_stale_system_view_detected():
    """The echoed receiver state must be one of the receiver's own
    recent digests."""
    cluster, sender, receiver, s_machine, _ = make_channel()
    s_machine.execute(b"incr")
    sender.observe_peer_state(sha256("never-a-receiver-state"))
    cluster.run(sender.send(b"incr"))
    cluster.run()
    with pytest.raises(TransformViolation, match="view"):
        receiver.deliver()


def test_valid_system_view_accepted():
    cluster, sender, receiver, s_machine, r_machine = make_channel()
    # Round 1 establishes the receiver digest at the sender.
    s_machine.execute(b"incr")
    cluster.run(sender.send(b"incr"))
    cluster.run()
    r_machine.execute(receiver.deliver())
    # Sender learns receiver state out-of-band (ACK piggyback).
    sender.observe_peer_state(r_machine.digest())
    # Round 2: the echoed view must be accepted.
    s_machine.execute(b"incr")
    cluster.run(sender.send(b"incr"))
    cluster.run()
    assert receiver.deliver() == b"incr"


def test_tampered_wire_message_never_reaches_transform():
    """TNIC verification (L8-9) rejects tampering below the transform."""
    from repro.net.fabric import NetworkFault

    state = {"hit": False}

    def tamper_once(pkt):
        if pkt.payload and pkt.trailer is not None and not state["hit"]:
            state["hit"] = True
            flipped = bytes([pkt.payload[0] ^ 0xFF]) + pkt.payload[1:]
            return pkt.with_payload(flipped)
        return None

    cluster = Cluster(["s", "r"], fault=NetworkFault(tamper=tamper_once))
    s_conn, r_conn = cluster.connect("s", "r")
    machine_s, machine_r = CounterMachine(), CounterMachine()
    sender = BftTransform(s_conn, machine_s.digest)
    receiver = BftTransform(
        r_conn, machine_r.digest, simulate_sender=machine_r.simulate
    )
    machine_s.execute(b"incr")
    completion = sender.send(b"incr")
    cluster.run(completion)
    cluster.run()
    # Retransmission delivered the genuine message; tampered one vanished.
    assert receiver.deliver() == b"incr"
    assert cluster["r"].device.roce.verification_failures >= 1


def test_transform_history_is_bounded():
    cluster = Cluster(["s", "r"])
    conn, _ = cluster.connect("s", "r")
    counter = {"n": 0}

    def digest():
        return sha256("state", counter["n"])

    transform = BftTransform(conn, digest)
    for i in range(200):
        counter["n"] = i
        transform._remember_own_state()
    assert len(transform._own_history) <= BftTransform.HISTORY


def test_observe_peer_state_validates_length():
    cluster = Cluster(["s", "r"])
    conn, _ = cluster.connect("s", "r")
    transform = BftTransform(conn, lambda: sha256("x"))
    with pytest.raises(ValueError):
        transform.observe_peer_state(b"short")
