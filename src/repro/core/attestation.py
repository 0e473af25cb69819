"""The NIC attestation kernel — Algorithm 1 (§4.1).

This is the paper's minimal TCB.  It produces and checks *attestation
certificates* α over network messages:

``Attest(session, msg)``
    α = HMAC(key[session], msg ‖ send_cnt ‖ device_id); the send counter
    is then advanced so every message gets a unique, monotonically
    increasing timestamp (non-equivocation), and the device id inside
    the MAC makes the authentication *transferable*.

``Verify(session, attested_msg)``
    recomputes the expected α' from the payload and compares, and checks
    the received counter equals the expected ``recv_cnt`` for the
    session ("to ensure continuity"), then advances ``recv_cnt``.

Two call styles are offered: immediate (:meth:`AttestationKernel.attest`
/ :meth:`~AttestationKernel.verify`), used by protocol logic and tests,
and pipelined (:meth:`~AttestationKernel.attest_event` /
:meth:`~AttestationKernel.verify_event`), which queue on the hardware
HMAC pipeline and charge its virtual-time occupancy.
"""

from __future__ import annotations

from dataclasses import field
from hmac import compare_digest
from typing import TYPE_CHECKING

from repro.core.counters import CounterStore
from repro.core.keystore import Keystore, KeystoreError
from repro.crypto.hashing import canonical_bytes
from repro.crypto.hmac_engine import HmacEngine, KeyedHmac, verify_encoded
from repro.sim.instrument import count, emit, flight_trigger, gauge_set
from repro.sim.record import Record, record

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.clock import Simulator
    from repro.sim.events import Event


class AttestationError(Exception):
    """Base class for verification failures."""


class MacMismatchError(AttestationError):
    """α does not match the payload: forged or tampered message."""


class ContinuityError(AttestationError):
    """Counter mismatch: lost, re-ordered, replayed or equivocated."""

    def __init__(self, expected: int, received: int) -> None:
        super().__init__(f"expected counter {expected}, received {received}")
        self.expected = expected
        self.received = received


class UnknownSessionError(AttestationError):
    """No key installed for the session."""


@record
class AttestedMessage(Record):
    """A message plus its attestation certificate α and metadata.

    Instances are immutable and *self-contained*: any party holding the
    session key can re-verify them, which is what makes authentication
    transferable (a forwarded attested message still verifies).
    """

    payload: bytes
    alpha: bytes
    session_id: int
    device_id: int
    counter: int
    #: Memo of :meth:`encoded`.  Never a constructor argument and not
    #: part of equality: whoever builds a message — the kernel, the
    #: wire, a forger, ``dataclasses.replace`` — gets the encoding of
    #: the fields that message actually has.
    _encoded: bytes | None = field(
        default=None, init=False, repr=False, compare=False)

    def mac_inputs(self) -> tuple:
        """The exact fields covered by α."""
        return (self.payload, self.counter, self.device_id, self.session_id)

    def encoded(self) -> bytes:
        """The canonical encoding of :meth:`mac_inputs` — the bytes α is
        a MAC of.  Derived once per message object and carried with it,
        so attest and every later transferable check MAC (and look up)
        the same bytes object.  :meth:`AttestationKernel.verify` reads
        the memo but never fills it."""
        encoded = self._encoded
        if encoded is None:
            encoded = canonical_bytes(self.mac_inputs())
            object.__setattr__(self, "_encoded", encoded)
        return encoded

    @property
    def wire_bytes(self) -> int:
        """Payload plus the 64 B α and 16 B metadata (§4.2)."""
        return len(self.payload) + 64 + 16


class AttestationKernel:
    """The trusted hardware module of Figure 2 (Keystore + Counters + HMAC)."""

    def __init__(
        self,
        device_id: int,
        sim: "Simulator | None" = None,
    ) -> None:
        self.device_id = device_id
        self.keystore = Keystore(device_id)
        self.counters = CounterStore()
        self.sim = sim
        self.hmac_engine = HmacEngine(sim) if sim is not None else None
        self.attest_count = 0
        self.verify_count = 0
        self.reject_count = 0

    # ------------------------------------------------------------------
    # Bootstrapping interface (used by the driver / attestation protocol)
    # ------------------------------------------------------------------
    def install_session(self, session_id: int, key: bytes) -> None:
        """Burn a session key into the Keystore."""
        self.keystore.install(session_id, key)

    # ------------------------------------------------------------------
    # Algorithm 1 — immediate semantics
    # ------------------------------------------------------------------
    def attest(self, session_id: int, payload: bytes) -> AttestedMessage:
        """Generate a unique, verifiable attestation for *payload*."""
        state = self._mac(session_id)
        counter = self.counters.next_send(session_id)  # Algo 1: L2
        encoded = canonical_bytes(
            (payload, counter, self.device_id, session_id))
        alpha = state.mac(encoded)  # Algo 1: L4
        self.attest_count += 1
        sim = self.sim
        if sim is not None and sim.telemetry is not None:
            # Gate here so the f-string is never built untraced.
            emit(sim, "attest.generate",
                 f"session={session_id} cnt={counter} {len(payload)}B",
                 device=self.device_id)
            count(sim, "attest.generate", device=self.device_id)
            gauge_set(sim, "attest.send_cnt", counter + 1,
                      device=self.device_id, session=session_id)
        message = AttestedMessage(
            payload=payload,
            alpha=alpha,
            session_id=session_id,
            device_id=self.device_id,
            counter=counter,
        )
        # The bytes just MACed are the message's encoding by construction.
        object.__setattr__(message, "_encoded", encoded)
        return message

    def verify(self, session_id: int, message: AttestedMessage) -> bytes:
        """Verify authenticity, integrity and continuity; return payload.

        Raises :class:`MacMismatchError` on a bad α (Algo 1: L7-8) and
        :class:`ContinuityError` when the counter is not the expected
        one for the session (Algo 1: L8).  Only a fully successful
        verification advances ``recv_cnt``.
        """
        # Compared directly, not through the outcome cache: success
        # advances ``recv_cnt``, so a (session, counter) verifies at most
        # once and a hit could only be a replay the counter check rejects.
        # For the same reason the encoding is not memoized here: a message
        # that carries one (from ``attest``) is MACed over it, any other
        # over a transient encoding, so a delivered message holds its
        # payload once.
        encoded = message._encoded
        if encoded is None:
            encoded = canonical_bytes(message.mac_inputs())
        if not compare_digest(self._mac(session_id).mac(encoded),
                              message.alpha):
            self.reject_count += 1
            sim = self.sim
            if sim is not None and sim.telemetry is not None:
                emit(sim, "attest.reject",
                     f"bad MAC session={session_id} cnt={message.counter}",
                     device=self.device_id)
                count(sim, "attest.reject",
                      device=self.device_id, reason="mac")
                flight_trigger(sim, "attest.reject",
                               device=self.device_id, session=session_id,
                               counter=message.counter, reason="mac")
            raise MacMismatchError(
                f"attestation mismatch for session {session_id} "
                f"counter {message.counter}"
            )
        expected = self.counters.expected_recv(session_id)
        if message.counter != expected:
            self.reject_count += 1
            sim = self.sim
            if sim is not None and sim.telemetry is not None:
                emit(sim, "attest.reject",
                     f"continuity session={session_id} expected={expected} "
                     f"got={message.counter}", device=self.device_id)
                count(sim, "attest.reject",
                      device=self.device_id, reason="continuity")
                flight_trigger(sim, "attest.reject",
                               device=self.device_id, session=session_id,
                               counter=message.counter, expected=expected,
                               reason="continuity")
            raise ContinuityError(expected, message.counter)
        self.counters.advance_recv(session_id)
        self.verify_count += 1
        sim = self.sim
        if sim is not None and sim.telemetry is not None:
            count(sim, "attest.verify_ok", device=self.device_id)
            gauge_set(sim, "attest.recv_cnt", expected + 1,
                      device=self.device_id, session=session_id)
        return message.payload

    def check_transferable(self, session_id: int, message: AttestedMessage) -> bool:
        """Verify α only (no continuity check, no counter mutation).

        This is what a *third party* holding the session key evaluates
        for a forwarded message — the transferable-authentication check
        ``verify(m, σ(p_i))`` of §2.1.
        """
        return verify_encoded(
            self._mac(session_id),
            message.alpha,
            message.encoded(),
        )

    # ------------------------------------------------------------------
    # Pipelined semantics (charge HMAC-pipeline time on the simulator)
    # ------------------------------------------------------------------
    def attest_event(self, session_id: int, payload: bytes) -> "Event":
        """As :meth:`attest`, but queued on the hardware HMAC pipeline.

        The MAC itself is produced synchronously by :meth:`attest`; the
        returned event is the pipeline occupancy for the payload's
        canonical encoding (its length plus the 8-byte length prefix)
        and carries the attested message.
        """
        engine = self._engine()
        message = self.attest(session_id, payload)
        return engine.occupy(len(payload) + 8, message)

    def verify_event(self, session_id: int, message: AttestedMessage) -> "Event":
        """As :meth:`verify`, but queued on the hardware HMAC pipeline.

        Each verification occupies the pipeline for its own message
        span and resolves at its own completion instant, in completion
        order, where :meth:`verify` runs — MAC check, continuity check
        and counter advance — exactly as in the immediate path.

        The event is the pipeline occupancy itself, carrying
        ``(session_id, message)``; :meth:`_settle`, its first callback,
        sets the outcome — the payload, or the
        :class:`AttestationError` as its exception.
        """
        engine = self._engine()
        self._mac(session_id)  # fail fast on unknown sessions
        check = engine.occupy(len(message.payload) + 8, (session_id, message))
        check.callbacks.append(self._settle)
        return check

    def _settle(self, check: "Event") -> None:
        """First callback of a :meth:`verify_event` event: set its outcome."""
        session_id, message = check._value
        try:
            check._value = self.verify(session_id, message)
        except AttestationError as exc:
            check._exception = exc

    # ------------------------------------------------------------------
    def _mac(self, session_id: int) -> KeyedHmac:
        """The session's keyed HMAC state: all the kernel ever holds of
        a session key."""
        try:
            return self.keystore.mac_for(session_id)
        except KeystoreError as exc:
            raise UnknownSessionError(str(exc)) from exc

    def _engine(self) -> HmacEngine:
        if self.hmac_engine is None:
            raise RuntimeError(
                "pipelined attestation requires the kernel to be built "
                "with a Simulator"
            )
        return self.hmac_engine
