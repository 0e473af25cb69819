"""Equivocation-free multicast (§6.1).

"TNIC does not support a hardware-assisted multicast, but it can offer
equivocation-free multicast uni-casting the same attested message
generated by local_send() as in [TrInc]."

A :class:`MulticastGroup` provisions one *broadcast session* shared by
the sender and every receiver.  The sender attests each payload exactly
once (one counter), then unicasts the identical attested message over
its reliable pairwise connections.  Each receiver re-verifies the
broadcast attestation and enforces gap-free counter continuity — so a
sender that tries to tell different receivers different things is
forced onto different counters and exposed.

:class:`ContinuityCheck` is that receiver rule, written once: the
multicast receiver here and the systems' per-sender
:class:`~repro.systems.common.BroadcastAuthenticator` both judge every
attested message with :meth:`ContinuityCheck.admit`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.api.connection import Cluster, IbvConnection
from repro.api.ops import auth_send, recv
from repro.core.attestation import AttestedMessage
from repro.crypto.hashing import sha256

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.events import Event


class EquivocationDetected(Exception):
    """A receiver observed a forged attestation, a counter gap or a
    replay: equivocation, forgery or a dropped message."""


class ContinuityCheck:
    """The §6.1 receiver rule for one sender's attested stream.

    α must verify, it must come from the sender's own device, and the
    sender's counters must arrive gap-free and in order.  A sender that
    equivocates (different messages to different peers) is forced by
    the attestation kernel to bind them to different counters, which
    this check exposes.  Every device holds the session key, but the
    kernel MACs its own ``device_id`` in: a peer that attests under the
    sender's session on its own device is exposed by that id.
    """

    def __init__(self, device_id: int) -> None:
        self.device_id = device_id
        self.expected_counter = 0
        self.anomalies: list[str] = []

    def admit(
        self, mac_valid: bool, message: AttestedMessage
    ) -> EquivocationDetected | None:
        """Judge *message* given its MAC verdict.

        None when it is the next message in order (the expected counter
        advances); otherwise the violation to raise, with its anomaly
        recorded in :attr:`anomalies`.
        """
        if not mac_valid:
            self.anomalies.append(f"bad-mac@{message.counter}")
            return EquivocationDetected(
                f"attestation failed for counter {message.counter}"
            )
        if message.device_id != self.device_id:
            self.anomalies.append(
                f"wrong-device expected={self.device_id} "
                f"got={message.device_id}"
            )
            return EquivocationDetected(
                f"attested by device {message.device_id}, not the "
                f"sender's device {self.device_id}"
            )
        if message.counter != self.expected_counter:
            self.anomalies.append(
                f"counter-gap expected={self.expected_counter} "
                f"got={message.counter}"
            )
            return EquivocationDetected(
                f"expected counter {self.expected_counter}, "
                f"got {message.counter}: equivocation or replay"
            )
        self.expected_counter += 1
        return None


def encode_attested(message: AttestedMessage) -> bytes:
    """Wire encoding of an attested message for re-transmission."""
    header = (
        message.counter.to_bytes(8, "big")
        + message.device_id.to_bytes(4, "big")
        + message.session_id.to_bytes(4, "big")
        + len(message.alpha).to_bytes(2, "big")
    )
    return header + message.alpha + message.payload


def decode_attested(data: bytes) -> AttestedMessage:
    if len(data) < 18:
        raise EquivocationDetected("truncated multicast frame")
    counter = int.from_bytes(data[0:8], "big")
    device_id = int.from_bytes(data[8:12], "big")
    session_id = int.from_bytes(data[12:16], "big")
    alpha_len = int.from_bytes(data[16:18], "big")
    alpha = data[18 : 18 + alpha_len]
    if len(alpha) != alpha_len:
        raise EquivocationDetected("truncated attestation")
    return AttestedMessage(
        payload=data[18 + alpha_len :],
        alpha=alpha,
        session_id=session_id,
        device_id=device_id,
        counter=counter,
    )


class MulticastReceiver(ContinuityCheck):
    """Receiver-side endpoint: verification + counter continuity."""

    def __init__(self, conn: IbvConnection, broadcast_session: int,
                 sender_device: int) -> None:
        super().__init__(sender_device)
        self.conn = conn
        self.broadcast_session = broadcast_session

    def deliver(self) -> "Event | None":
        """Pop, verify and order the next multicast payload.

        Returns None when nothing is pending; otherwise an event that
        resolves with the payload or fails with
        :class:`EquivocationDetected`.
        """
        item = recv(self.conn)
        if item is None:
            return None
        message = decode_attested(item["payload"])
        done = self.conn.node.sim.event()
        check = self.conn.node.device.local_verify(
            self.broadcast_session, message
        )

        def _finish(event) -> None:
            violation = self.admit(event._value, message)
            if violation is None:
                done.succeed(message.payload)
            else:
                done.fail(violation)

        check.callbacks.append(_finish)
        return done


class MulticastGroup:
    """Sender-side endpoint of one equivocation-free multicast group."""

    def __init__(
        self,
        sender_conns: list[IbvConnection],
        receivers: list[MulticastReceiver],
        broadcast_session: int,
    ) -> None:
        self.sender_conns = sender_conns
        self.receivers = receivers
        self.broadcast_session = broadcast_session

    @classmethod
    def create(
        cls, cluster: Cluster, sender: str, receiver_names: list[str]
    ) -> "MulticastGroup":
        """Provision the broadcast session and pairwise connections."""
        if not receiver_names:
            raise ValueError("multicast group needs at least one receiver")
        session_id, _ = cluster.sessions.new_session()
        key = sha256("broadcast", sender, session_id)
        sender_device = cluster[sender].device
        sender_device.install_session(session_id, key)
        sender_conns = []
        receivers = []
        for name in receiver_names:
            cluster[name].device.install_session(session_id, key)
            s_conn, r_conn = cluster.connect(sender, name)
            sender_conns.append(s_conn)
            receivers.append(
                MulticastReceiver(conn=r_conn, broadcast_session=session_id,
                                  sender_device=sender_device.device_id)
            )
        return cls(sender_conns, receivers, session_id)

    def send(self, payload: bytes):
        """Process generator: attest once, unicast the identical frame.

        Usage: ``yield from group.send(b"decision")``.
        """
        device = self.sender_conns[0].node.device
        # local_send() under the *broadcast* session: one attestation,
        # one counter, for every receiver.
        attested = yield device.local_attest(self.broadcast_session, payload)
        frame = encode_attested(attested)
        completions = []
        for conn in self.sender_conns:
            completions.append(auth_send(conn, frame))
        for completion in completions:
            yield completion
        return attested
