"""The generic CFT→BFT transformation recipe (§6.2, Listing 1).

The transformation wraps the send and receive operations of an existing
CFT system:

* ``send`` transmits the message, a digest of the sender's state after
  acting on the message, and (optionally) the latest receiver state the
  sender has seen.
* ``recv`` delivers only TNIC-verified messages, *simulates* the
  sender's action to check the claimed state ("the receiver simulates
  the sender's state to verify that the sender's action to the request
  is as expected"), verifies the echoed receiver state against its own
  history (the system-view check), and only then applies the message.

Safety comes from transferable authentication, integrity from the
state simulation, and consistency from the total order that TNIC's
counters impose on each sender's messages.  Systems with
non-deterministic specifications cannot be transformed (§6.2), which
:class:`BftTransform` enforces by requiring a deterministic
``simulate_sender`` callback.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.api.connection import IbvConnection
from repro.api.ops import auth_send, recv
from repro.crypto.hashing import DIGEST_SIZE
from repro.sim.record import Record, record

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.events import Event


class TransformViolation(Exception):
    """A Byzantine deviation detected by the transformation checks."""


@record
class WrappedMessage(Record):
    """The wire format of Listing 1: msg ‖ sender_state ‖ receiver_state."""

    body: bytes
    sender_state: bytes
    receiver_state: bytes = b""

    def encode(self) -> bytes:
        if len(self.sender_state) != DIGEST_SIZE:
            raise ValueError("sender_state must be a 32-byte digest")
        if self.receiver_state and len(self.receiver_state) != DIGEST_SIZE:
            raise ValueError("receiver_state must be empty or a 32-byte digest")
        flag = b"\x01" if self.receiver_state else b"\x00"
        return flag + self.sender_state + self.receiver_state + self.body

    @classmethod
    def decode(cls, data: bytes) -> "WrappedMessage":
        if len(data) < 1 + DIGEST_SIZE:
            raise TransformViolation("wrapped message too short")
        has_receiver = data[0:1] == b"\x01"
        sender_state = data[1 : 1 + DIGEST_SIZE]
        offset = 1 + DIGEST_SIZE
        receiver_state = b""
        if has_receiver:
            receiver_state = data[offset : offset + DIGEST_SIZE]
            if len(receiver_state) != DIGEST_SIZE:
                raise TransformViolation("truncated receiver state")
            offset += DIGEST_SIZE
        return cls(
            body=data[offset:],
            sender_state=sender_state,
            receiver_state=receiver_state,
        )


class BftTransform:
    """Wrapper send/recv for one directed channel of a CFT protocol.

    Parameters
    ----------
    conn:
        The TNIC connection toward the peer.
    state_digest:
        Zero-argument callable returning the digest of the local state.
    simulate_sender:
        Callable ``(body) -> digest``: deterministically simulate the
        peer's action on *body* and return the state digest the peer
        must now have.  ``None`` disables the integrity simulation (for
        channels whose messages carry no state transition).

    A non-empty echoed receiver state must match one of this node's
    recent digests ("the receiver also ensures that it does not lag, and
    both nodes have the same view").
    """

    HISTORY = 64

    def __init__(
        self,
        conn: IbvConnection,
        state_digest: Callable[[], bytes],
        simulate_sender: Callable[[bytes], bytes] | None = None,
    ) -> None:
        self.conn = conn
        self.state_digest = state_digest
        self.simulate_sender = simulate_sender
        #: Latest peer-state digest observed (echoed back on sends).
        self.last_peer_state: bytes = b""
        #: Recent local digests accepted as a valid "system view".
        self._own_history: list[bytes] = [state_digest()]
        self.violations: list[str] = []

    # ------------------------------------------------------------------
    # Listing 1 — send (L1-5)
    # ------------------------------------------------------------------
    def send(self, body: bytes) -> "Event":
        """Wrap and transmit *body* with state evidence."""
        wrapped = WrappedMessage(
            body=body,
            sender_state=self.state_digest(),
            receiver_state=self.last_peer_state,
        )
        self._remember_own_state()
        return auth_send(self.conn, wrapped.encode())

    def _remember_own_state(self) -> None:
        digest = self.state_digest()
        if not self._own_history or self._own_history[-1] != digest:
            self._own_history.append(digest)
            if len(self._own_history) > self.HISTORY:
                self._own_history.pop(0)

    # ------------------------------------------------------------------
    # Listing 1 — recv (L7-13)
    # ------------------------------------------------------------------
    def deliver(self) -> bytes | None:
        """Deliver the next verified message, or None if none pending.

        TNIC hardware has already verified α and continuity (L8-9);
        this method performs the sender-state simulation (L10) and the
        system-view check (L11-12) and raises
        :class:`TransformViolation` on any deviation — exposing the
        faulty peer instead of applying its message.
        """
        self._remember_own_state()
        item = recv(self.conn)
        if item is None:
            return None
        wrapped = WrappedMessage.decode(item["payload"])

        if self.simulate_sender is not None:
            expected = self.simulate_sender(wrapped.body)
            if expected != wrapped.sender_state:
                self.violations.append("sender-state mismatch")
                raise TransformViolation(
                    "sender state does not match the simulated execution: "
                    "the peer deviated from the protocol specification"
                )

        if wrapped.receiver_state:
            if wrapped.receiver_state not in self._own_history:
                self.violations.append("system-view mismatch")
                raise TransformViolation(
                    "echoed receiver state is not one of our recent states: "
                    "sender and receiver have diverging system views"
                )

        self.last_peer_state = wrapped.sender_state
        return wrapped.body

    def observe_peer_state(self, digest: bytes) -> None:
        """Record a peer digest learnt out-of-band (e.g. from an ACK)."""
        if len(digest) != DIGEST_SIZE:
            raise ValueError("peer state must be a 32-byte digest")
        self.last_peer_state = digest
