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
HMAC pipeline, charge its virtual-time occupancy and hand the outcome
to the caller's step when the message leaves it.
"""

from __future__ import annotations

from dataclasses import field
from hmac import compare_digest
from typing import TYPE_CHECKING, Any, Callable

from repro.core.counters import CounterStore
from repro.core.keystore import Keystore
from repro.crypto.hashing import canonical_bytes, length_prefix
from repro.crypto.hmac_engine import HmacEngine, verify_encoded
from repro.sim.instrument import count, emit, flight_trigger, gauge_set
from repro.sim.record import Record, record

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.clock import Simulator


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

    def __init__(self, session_id: int) -> None:
        super().__init__(f"no key installed for session {session_id}")
        self.session_id = session_id


def session_tail(device_id: int, session_id: int) -> bytes:
    """The encoded ``(device_id, session_id)`` that ends every MAC input
    of a message from *device_id* on *session_id*."""
    return canonical_bytes((device_id, session_id))


def encode_mac_input(payload: bytes, counter: int, tail: bytes) -> bytes:
    """The bytes α is a MAC of: ``len‖payload‖len‖counter‖tail``.

    With *tail* from :func:`session_tail` this is exactly
    ``canonical_bytes((payload, counter, device_id, session_id))``; a
    field of any other type (a forger's choice, a memoryview the digest
    boundary refuses) takes the generic encoding of its part.
    """
    if type(payload) is not bytes or type(counter) is not int:
        return canonical_bytes((payload, counter)) + tail
    digits = b"%d" % counter
    return b"".join((length_prefix(len(payload)), payload,
                     length_prefix(len(digits)), digits, tail))


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
            encoded = encode_mac_input(
                self.payload, self.counter,
                session_tail(self.device_id, self.session_id))
            _attach_encoding(self, encoded)
        return encoded

    @property
    def wire_bytes(self) -> int:
        """Payload plus the 64 B α and 16 B metadata (§4.2)."""
        return len(self.payload) + 64 + 16


#: Writes the ``_encoded`` slot of a built message (its memo).
_attach_encoding = AttestedMessage._encoded.__set__


class AttestationKernel:
    """The trusted hardware module of Figure 2 (Keystore + Counters + HMAC).

    Per message it does what Algorithm 1 does in one hardware pass: one
    lookup of the session's state, one encoding, one MAC.  A session's
    state is split in two on purpose.  Its keyed HMAC state stays in the
    Keystore's static memory and is read in place (``_session_macs``,
    a key source of the secrecy lint).  Its counter record, its
    pre-encoded tail and the tail of the session's peer, which hold
    nothing secret, are kept in ``_sessions`` from the session's first
    use.  The lint does not track fields separately, so packing the keyed
    state with them would make every counter a secret.
    """

    def __init__(
        self,
        device_id: int,
        sim: "Simulator | None" = None,
    ) -> None:
        self.device_id = device_id
        self.keystore = Keystore(device_id)
        self.counters = CounterStore()
        #: The Keystore's session -> keyed HMAC state table, read in place.
        self._session_macs = self.keystore._session_macs
        #: session -> (its counter record, :func:`session_tail` of this
        #: device, ``[device_id, session_id, tail]`` of the last message
        #: :meth:`verify` encoded), built by :meth:`_open` for sessions
        #: with a key only.
        self._sessions: dict[int, tuple] = {}
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
        counters, tail, _ = (self._sessions.get(session_id)
                             or self._open(session_id))
        counter = counters.send_cnt  # Algo 1: L2
        counters.send_cnt = counter + 1
        encoded = encode_mac_input(payload, counter, tail)
        alpha = self._session_macs[session_id].mac(encoded)  # Algo 1: L4
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
        message = AttestedMessage(payload, alpha, session_id,
                                  self.device_id, counter)
        # The bytes just MACed are the message's encoding by construction.
        _attach_encoding(message, encoded)
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
        # payload once.  Only the tail of the ids it claims is kept: a
        # session has one peer, and a message naming other ids (or ids
        # of another type) is encoded over its own claim.
        counters, _, peer = (self._sessions.get(session_id)
                             or self._open(session_id))
        encoded = message._encoded
        if encoded is None:
            device_id, claimed = message.device_id, message.session_id
            if (type(device_id) is int and type(claimed) is int
                    and device_id == peer[0] and claimed == peer[1]):
                tail = peer[2]
            else:
                tail = session_tail(device_id, claimed)
                if type(device_id) is int and type(claimed) is int:
                    peer[:] = device_id, claimed, tail
            encoded = encode_mac_input(message.payload, message.counter, tail)
        if not compare_digest(self._session_macs[session_id].mac(encoded),
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
        expected = counters.recv_cnt
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
        counters.recv_cnt = expected + 1
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
        try:
            state = self._session_macs[session_id]
        except KeyError:
            raise UnknownSessionError(session_id) from None
        return verify_encoded(state, message.alpha, message.encoded())

    # ------------------------------------------------------------------
    # Pipelined semantics (charge HMAC-pipeline time on the simulator)
    # ------------------------------------------------------------------
    def attest_event(self, session_id: int, payload: bytes,
                     step: Callable[[AttestedMessage], Any]) -> None:
        """As :meth:`attest`, but queued on the hardware HMAC pipeline:
        ``step(message)`` runs when the message leaves it.

        The MAC itself is produced synchronously by :meth:`attest`; the
        pipeline is occupied for the payload's canonical encoding (its
        length plus the 8-byte length prefix).
        """
        engine = self._engine()
        engine.occupy(len(payload) + 8, step, self.attest(session_id, payload))

    def verify_event(
        self, session_id: int, message: AttestedMessage,
        step: Callable[[bytes | None, AttestationError | None], Any],
    ) -> None:
        """As :meth:`verify`, but queued on the hardware HMAC pipeline.

        Each verification occupies the pipeline for its own message
        span and resolves at its own completion instant, in completion
        order, where :meth:`verify` runs — MAC check, continuity check
        and counter advance — exactly as in the immediate path.  Then
        ``step(payload, None)`` runs, or ``step(None, error)`` with the
        :class:`AttestationError`.
        """
        engine = self._engine()
        if session_id not in self._session_macs:  # fail fast
            raise UnknownSessionError(session_id)
        engine.occupy(len(message.payload) + 8, self._settle,
                      (session_id, message, step))

    def _settle(self, check: tuple) -> None:
        """The step of a :meth:`verify_event` occupancy: verify, then
        hand the outcome to the caller's step."""
        session_id, message, step = check
        error = None
        try:
            payload = self.verify(session_id, message)
        except AttestationError as exc:
            payload, error = None, exc
        step(payload, error)

    # ------------------------------------------------------------------
    def _open(self, session_id: int) -> tuple:
        """First use of *session_id*: keep its counter record, its tail
        and an empty memo of its peer's tail.

        Refused before anything is kept when the session has no key, so
        the table cannot be grown by session ids a caller makes up.
        """
        if session_id not in self._session_macs:
            raise UnknownSessionError(session_id)
        session = self._sessions[session_id] = (
            self.counters.session(session_id),
            session_tail(self.device_id, session_id), [None, None, b""])
        return session

    def _engine(self) -> HmacEngine:
        if self.hmac_engine is None:
            raise RuntimeError(
                "pipelined attestation requires the kernel to be built "
                "with a Simulator"
            )
        return self.hmac_engine
