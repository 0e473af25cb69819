"""Accountability with PeerReview over TNIC (§7, App. C.5, Algorithm 5).

An overlay-multicast streaming tree (one source, two children).  Every
participant keeps a *tamper-evident log* — a hash chain of all messages
sent and received.  A witness assigned to the source audits the log:
it fetches the entries since its last audit (with a nonce for
freshness), replays them against a reference deterministic
implementation and flags any divergence.

TNIC's contribution (vs the original PeerReview) is that messages carry
hardware attestations with monotonic counters, so receivers need not
forward every message to the sender's witnesses to rule out
equivocation — the all-to-all communication disappears, and the audit
reduces to a periodic log replay.

Log entry *i* is authenticated by ``SHA-256(len‖prev‖len‖direction‖
len‖data)``, each length an 8-byte big-endian prefix, ``prev`` the
authenticator of entry *i - 1* (:data:`GENESIS` for entry 0) and
``direction`` the UTF-8 ``"send"`` or ``"recv"``: the canonical
encoding of :func:`repro.crypto.hashing.sha256`, built by
:func:`link_authenticator` from precomputed parts.  A chunk's reference
result is ``"out:"`` and the first 12 hex digits of the SHA-256 of its
length-prefixed UTF-8 text, built the same way by
:func:`reference_execute`.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from hashlib import sha256 as _sha256

from repro.core.attestation import AttestedMessage
from repro.crypto.hashing import DIGEST_SIZE, length_prefix, sha256
from repro.sim.clock import Simulator
from repro.sim.latency import PEER_REVIEW_AUDIT_US
from repro.sim.record import Record, record
from repro.systems.common import (
    BroadcastAuthenticator,
    Client,
    EmulatedNetwork,
    Station,
    SystemMetrics,
    provision,
)

# ---------------------------------------------------------------------------
# Tamper-evident log
# ---------------------------------------------------------------------------

#: Authenticator every chain starts from (the "previous" of entry 0).
GENESIS = b"\x00" * DIGEST_SIZE

_PREV_LENGTH = length_prefix(DIGEST_SIZE)
#: The encoded direction of every entry a node logs.
_DIRECTIONS = {direction: length_prefix(len(direction)) + direction.encode()
               for direction in ("send", "recv")}


def link_authenticator(prev: bytes, direction: str, data: bytes) -> bytes:
    """``sha256(prev, direction, data)``: the authenticator of an entry
    chained from *prev*.

    The one shape a log link has — a 32-byte *prev*, a ``"send"`` or
    ``"recv"`` direction, ``bytes`` data — is encoded from precomputed
    parts and hashed once; any other input takes the generic encoding.
    """
    tag = _DIRECTIONS.get(direction) if type(direction) is str else None
    if (tag is None or type(prev) is not bytes or len(prev) != DIGEST_SIZE
            or type(data) is not bytes):
        return sha256(prev, direction, data)
    return _sha256(b"".join((_PREV_LENGTH, prev, tag,
                             length_prefix(len(data)), data))).digest()


@record
class LogRecord(Record):
    """One entry of the hash-chained log."""

    index: int
    direction: str  # "send" | "recv"
    data: bytes
    authenticator: bytes  # hash(prev_authenticator, direction, data)


class TamperEvidentLog:
    """An append-only hash chain; any retroactive edit breaks the chain."""

    def __init__(self) -> None:
        self.records: list[LogRecord] = []

    def append(self, direction: str, data: bytes) -> LogRecord:
        prev = self.records[-1].authenticator if self.records else GENESIS
        record = LogRecord(len(self.records), direction, data,
                           link_authenticator(prev, direction, data))
        self.records.append(record)
        return record

    def tamper(self, index: int, data: bytes) -> None:
        """Byzantine helper: rewrite a record in place (tests only)."""
        old = self.records[index]
        self.records[index] = LogRecord(old.index, old.direction, data,
                                        old.authenticator)

    def broken_links(self, start: int = 0,
                     head: bytes = GENESIS) -> Iterator[int]:
        """Yield the index of every entry from *start* on whose
        authenticator does not chain from its predecessor's.

        *head* is the authenticator the entry at *start* must chain
        from: the genesis value for the whole log, or the authenticator
        of entry ``start - 1`` as an auditor recorded it.
        """
        prev = head
        for record in self.records[start:]:
            if record.authenticator != link_authenticator(
                    prev, record.direction, record.data):
                yield record.index
            prev = record.authenticator

    def verify_chain(self) -> int | None:
        """Return the index of the first broken link, or None if intact."""
        return next(self.broken_links(), None)


# ---------------------------------------------------------------------------
# Wire messages
# ---------------------------------------------------------------------------


@record
class StreamChunk(Record):
    kind = "chunk"
    sender: str
    attested: AttestedMessage  # payload encodes (seq, content)


@record
class ChunkAck(Record):
    kind = "ack"
    sender: str
    attested: AttestedMessage  # payload encodes (seq, result)


def _encode(seq: int, text: str) -> bytes:
    return f"{seq}|{text}".encode()


def _decode(payload: bytes) -> tuple[int, str]:
    seq, text = payload.decode().split("|", 1)
    return int(seq), text


def reference_execute(content: str) -> str:
    """The deterministic specification every participant must follow:
    ``"out:" + sha256(content).hex()[:12]``, the text encoded once."""
    text = content.encode()
    return "out:" + _sha256(length_prefix(len(text)) + text).hexdigest()[:12]


@dataclass
class PeerReviewBehaviour:
    """Byzantine deviations injected into the tree."""

    wrong_execution: bool = False   # children compute a deviating result
    tamper_log: bool = False        # source rewrites a logged entry
    silent_child: bool = False      # first child stops responding


# ---------------------------------------------------------------------------
# Nodes
# ---------------------------------------------------------------------------


class _Child(Station):
    """A child of the tree: a station whose job per chunk is the check
    of the source's attestation, then the attest of its own result."""

    def __init__(self, name: str, system: "PeerReviewSystem") -> None:
        super().__init__(system.network, name)
        self.system = system
        self.provider = system.providers[name]
        self.log = TamperEvidentLog()
        source = system.source_name
        self.auth = BroadcastAuthenticator(
            self.provider, system.session_ids[source],
            system.providers[source].device_id,
        )
        self.detected_faults: list[str] = []
        self.wrong_execution = False
        self.silent = False

    def start(self, message, start: float) -> None:
        """Check a chunk's attestation; a silent (crashed) child and any
        other message end the job here."""
        if self.silent or not isinstance(message, StreamChunk):
            return self.next()
        self.auth.verify(message.attested, self._execute, start)

    def _execute(self, payload: bytes | None, violation) -> None:
        """Log the chunk, run the reference implementation on it and
        attest the result."""
        if violation is not None:
            self.detected_faults.append(str(violation))
            return self.next()
        seq, content = _decode(payload)
        self.log.append("recv", payload)
        result = reference_execute(content)
        if self.wrong_execution:
            result = "out:deviated"
        response_payload = _encode(seq, result)
        self.log.append("send", response_payload)
        self.provider.attest(self.system.session_ids[self.name],
                             response_payload, self._ack)

    def _ack(self, attested: AttestedMessage) -> None:
        """Acknowledge the chunk to the source with the attested result."""
        self.system.network.send(
            self.system.source_name, ChunkAck(self.name, attested))
        self.next()


class _Source(Client):
    """The root of the tree: a station whose jobs are its children's
    acks, each the check of the ack's attestation.  Its own steps — a
    chunk's attest and multicast, then the witness audits — run as the
    job in service, so acks that arrive meanwhile queue in send order."""

    def __init__(self, system: "PeerReviewSystem",
                 behaviour: PeerReviewBehaviour) -> None:
        super().__init__(system, system.source_name)
        self.provider = system.providers[self.name]
        self.behaviour = behaviour
        self.log = TamperEvidentLog()
        self.child_auths = {
            child: BroadcastAuthenticator(
                self.provider, system.session_ids[child],
                system.providers[child].device_id,
            )
            for child in system.children
        }
        self.detected_faults: list[str] = []

    def stream(self, contents: list[str]) -> SystemMetrics:
        """root(): multicast each chunk, await both children's acks."""
        self._contents = contents
        self._seq = -1
        return self.run(self.begin)

    def send_next(self) -> None:
        """Attest the next chunk, or end the run after the last."""
        system = self.system
        self._busy = True  # the chunk is the job in service
        self._seq = seq = self._seq + 1
        if seq == len(self._contents):
            return self.end()
        self.sent_at = self.sim.now
        self._payload = _encode(seq, self._contents[seq])
        self.provider.attest(system.session_ids[self.name], self._payload,
                             self._multicast)

    def _multicast(self, attested: AttestedMessage) -> None:
        """Log the chunk, send it to every child and wait for the acks."""
        system, seq = self.system, self._seq
        self.log.append("send", self._payload)
        if self.behaviour.tamper_log and seq == 1:
            self.log.tamper(len(self.log.records) - 1,
                            _encode(seq, "forged-content"))
        chunk = StreamChunk(self.name, attested)
        for child in system.children:
            system.network.send(child, chunk)
        self._acked: set[str] = set()
        self._ack_deadline = self.sim.now + system.ack_timeout_us
        self._await_acks()

    def _await_acks(self) -> None:
        """End the job in service; with no ack queued, wait for one
        until the chunk's deadline."""
        if self._ack_deadline <= self.sim.now:
            return self.expired()
        self.next()
        if not self._busy:
            self.wait(self._ack_deadline)

    def start(self, message, start: float) -> None:
        """An ack's job: check its attestation, charged from *start*;
        the wait for acks pauses meanwhile."""
        if not isinstance(message, ChunkAck):
            return self.next()
        self.deadline = None
        self._ack = message
        self.child_auths[message.sender].verify(
            message.attested, self._checked, start)

    def _checked(self, ack_payload: bytes | None, violation) -> None:
        """Log an ack of the chunk in flight; once every child has
        acked, the witness audits."""
        if violation is not None:
            self.detected_faults.append(str(violation))
            return self._await_acks()
        ack_seq, _result = _decode(ack_payload)
        if ack_seq == self._seq:
            self.log.append("recv", ack_payload)
            self._acked.add(self._ack.sender)
            if self._acked == set(self.system.children):
                return self._audit()
        self._await_acks()

    def expired(self) -> None:
        """No ack from some child within ``ack_timeout_us``: "expose
        non-responsive nodes" — a witness treats a child that stops
        acknowledging as exposed."""
        system = self.system
        for child in set(system.children) - self._acked:
            system.witness_faults.append(
                f"{child}: non-responsive (no ack for chunk "
                f"{self._seq} within {system.ack_timeout_us:.0f}us)"
            )
        self._busy = True  # the audit is the job in service
        self._audit()

    def _audit(self) -> None:
        """The witness audits: "the witness audits the log after every
        send operation in the source node", one timed stage per witness,
        the source's first."""
        system = self.system
        if not system.audit_enabled:
            return self._chunk_done()
        self._audits = [(system.witness, self.log, "")]
        if system.audit_children:
            self._audits += [
                (system.child_witnesses[name], child.log, f"{name}: ")
                for name, child in system.child_nodes.items()
            ]
        sim = self.sim
        sim.call_at(sim._now + PEER_REVIEW_AUDIT_US, self._audited, None)

    def _audited(self, _stage: None) -> None:
        witness, log, prefix = self._audits.pop(0)
        self.system.witness_faults.extend(
            prefix + fault for fault in witness.audit(log))
        if self._audits:
            sim = self.sim
            sim.call_at(sim._now + PEER_REVIEW_AUDIT_US, self._audited, None)
            return
        self._chunk_done()

    def _chunk_done(self) -> None:
        self.system.metrics.record(self.sim.now - self.sent_at)
        self.send_next()


class Witness:
    """Audits a participant's log against the reference implementation.

    "Each node is assigned to a set of witness processes to detect
    faults" — the *role* determines which log direction carries stream
    chunks and which carries computed results: the source logs chunks
    as sends and results as recvs; a child logs the reverse.

    Between audits the witness holds a checkpoint: its own copy of the
    entries it has audited (references to the node's immutable
    ``LogRecord``s, a pointer per entry) and the reference result of
    every chunk replayed so far.  An audit first holds the node to that
    prefix, then chain-verifies and replays only the entries beyond it.
    """

    def __init__(self, role: str = "source") -> None:
        if role not in ("source", "child"):
            raise ValueError(f"unknown witness role {role!r}")
        self.role = role
        self.audits_performed = 0
        self._audited: list[LogRecord] = []
        #: seq -> reference result of every chunk replayed so far.  No
        #: entry is ever dropped: a node may log a result for an old
        #: chunk arbitrarily late, and it must still be checked.
        self._expected: dict[int, str] = {}
        self._reported: set[str] = set()

    @property
    def audited_until(self) -> int:
        """Number of log entries audited so far."""
        return len(self._audited)

    @property
    def head(self) -> bytes:
        """Authenticator the next unaudited entry must chain from."""
        return self._audited[-1].authenticator if self._audited else GENESIS

    def audit(self, log: TamperEvidentLog) -> list[str]:
        """log_audit(): replay new entries; returns a list of faults.

        Every entry is chain-verified (from :attr:`head`) and replayed
        through the reference implementation by exactly one audit — the
        first one that sees it — so each fault is returned once, by the
        audit that finds it, never again by a later one.

        A log that no longer starts with the audited prefix (an audited
        entry rewritten, or the log truncated below the checkpoint) is a
        fault of its own.  The witness then drops the checkpoint and
        audits the history the node now presents from the genesis value,
        returning only the faults it has not returned before.
        """
        self.audits_performed += 1
        chunk_direction = "send" if self.role == "source" else "recv"
        # Kept apart from the per-entry faults: two rewrites below the
        # same checkpoint read alike and must both be returned.
        rewritten: list[str] = []
        if log.records[:self.audited_until] != self._audited:
            rewritten.append(
                "log rewritten/truncated below audited entry "
                f"{self.audited_until}"
            )
            self._audited = []
            self._expected = {}
        start = self.audited_until
        faults = [
            f"hash chain broken at entry {index}"
            for index in log.broken_links(start, self.head)
        ]
        expected_results = self._expected
        unaudited = log.records[start:]
        for record in unaudited:
            seq, text = _decode(record.data)
            if record.direction == chunk_direction:
                expected_results[seq] = reference_execute(text)
            else:
                expected = expected_results.get(seq)
                if expected is not None and text != expected:
                    faults.append(
                        f"entry {record.index}: logged result {text!r} "
                        f"diverges from reference {expected!r}"
                    )
        self._audited.extend(unaudited)
        faults = [fault for fault in faults if fault not in self._reported]
        self._reported.update(faults)
        return rewritten + faults


# ---------------------------------------------------------------------------
# The system
# ---------------------------------------------------------------------------


class PeerReviewSystem:
    """Streaming tree of height one: one source, two children."""

    def __init__(
        self,
        provider_name: str = "tnic",
        audit: bool = True,
        children: int = 2,
        seed: int = 0,
        behaviour: PeerReviewBehaviour | None = None,
        audit_children: bool = False,
        ack_timeout_us: float = 100_000.0,
    ) -> None:
        if children < 1:
            raise ValueError("need at least one child")
        self.ack_timeout_us = ack_timeout_us
        self.sim = Simulator()
        self.network = EmulatedNetwork(self.sim)
        self.provider_name = provider_name
        self.audit_enabled = audit
        #: §8.3 uses "one witness for the source node"; enabling this
        #: audits every child's log too (full witness-set deployment).
        self.audit_children = audit_children
        self.source_name = "source"
        self.children = [f"child{i}" for i in range(children)]
        self.providers, self.session_ids = provision(
            self.sim, provider_name, [self.source_name] + self.children, seed
        )
        self.metrics = SystemMetrics(sim=self.sim, system="peer_review")
        self.witness = Witness(role="source")
        self.child_witnesses = {
            name: Witness(role="child") for name in self.children
        }
        self.witness_faults: list[str] = []
        self.source = _Source(self, behaviour or PeerReviewBehaviour())
        self.child_nodes = {name: _Child(name, self) for name in self.children}
        if behaviour and behaviour.wrong_execution:
            first = self.children[0]
            self.child_nodes[first].wrong_execution = True
        if behaviour and behaviour.silent_child:
            first = self.children[0]
            self.child_nodes[first].silent = True

    def run_workload(self, chunks: int) -> SystemMetrics:
        contents = [f"chunk-{i}" for i in range(chunks)]
        return self.source.stream(contents)

    def detected_faults(self) -> list[str]:
        """Every fault found so far, witness verdicts first; an audit
        finding appears once however many audits followed it (see
        :meth:`Witness.audit`)."""
        faults = list(self.witness_faults)
        faults.extend(self.source.detected_faults)
        for child in self.child_nodes.values():
            faults.extend(child.detected_faults)
        return faults
