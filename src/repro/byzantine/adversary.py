"""Attack campaigns against the TNIC security properties.

Each attack function drives a concrete adversarial strategy against a
pair of attestation kernels or a live cluster and returns an
:class:`AttackReport` stating how many attempts were made and how many
were (wrongly) accepted.  Correct behaviour is always
``report.accepted == 0`` for the kernel-level attacks, and delivered ==
sent exactly once for the wire campaigns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api import Cluster, auth_send
from repro.api.ops import recv
from repro.core.attestation import (
    AttestationError,
    AttestationKernel,
    AttestedMessage,
)
from repro.net.body import materialize
from repro.net.fabric import NetworkFault
from repro.sim.rng import DeterministicRng


@dataclass
class AttackReport:
    """Outcome of one adversarial campaign."""

    attack: str
    attempts: int = 0
    accepted: int = 0
    rejected: int = 0
    notes: list[str] = field(default_factory=list)

    def record(self, accepted: bool, note: str = "") -> None:
        self.attempts += 1
        if accepted:
            self.accepted += 1
            if note:
                self.notes.append(note)
        else:
            self.rejected += 1

    @property
    def defended(self) -> bool:
        """True when no adversarial attempt was accepted."""
        return self.accepted == 0


# ---------------------------------------------------------------------------
# Kernel-level attacks (host adversary with API access, no keys)
# ---------------------------------------------------------------------------


def forge_attack(
    receiver: AttestationKernel,
    session_id: int,
    attempts: int = 64,
    seed: int = 0,
) -> AttackReport:
    """Try to get random-MAC messages accepted (no key knowledge)."""
    rng = DeterministicRng(seed, "forge")
    report = AttackReport("forge")
    for i in range(attempts):
        forged = AttestedMessage(
            payload=f"forged-{i}".encode(),
            alpha=rng.bytes(32),
            session_id=session_id,
            device_id=999,
            counter=receiver.counters.expected_recv(session_id),
        )
        try:
            receiver.verify(session_id, forged)
        except AttestationError:
            report.record(accepted=False)
        else:
            report.record(accepted=True, note=f"forgery {i} accepted")
    return report


def replay_attack(
    sender: AttestationKernel,
    receiver: AttestationKernel,
    session_id: int,
    messages: int = 16,
) -> AttackReport:
    """Deliver every genuine message twice; the replays must all fail."""
    report = AttackReport("replay")
    history = []
    for i in range(messages):
        message = sender.attest(session_id, f"m{i}".encode())
        history.append(message)
        receiver.verify(session_id, message)  # genuine delivery
    for message in history:
        try:
            receiver.verify(session_id, message)
        except AttestationError:
            report.record(accepted=False)
        else:
            report.record(accepted=True, note=f"replay of {message.counter}")
    return report


def stale_counter_attack(
    sender: AttestationKernel,
    receiver: AttestationKernel,
    session_id: int,
    messages: int = 8,
) -> AttackReport:
    """Withhold and reorder genuine messages (deliver newest first)."""
    report = AttackReport("reorder")
    history = [sender.attest(session_id, f"m{i}".encode()) for i in range(messages)]
    for message in reversed(history):
        expected = receiver.counters.expected_recv(session_id)
        try:
            receiver.verify(session_id, message)
        except AttestationError:
            report.record(accepted=False)
        else:
            # Only the in-order message may be accepted.
            report.record(
                accepted=message.counter != expected,
                note=f"out-of-order {message.counter} accepted",
            )
    return report


def impersonation_attack(
    receiver: AttestationKernel,
    session_id: int,
    attempts: int = 16,
) -> AttackReport:
    """A compromised host re-labels messages from its *own* kernel
    (different key) as the victim device."""
    attacker = AttestationKernel(device_id=666)
    attacker.install_session(session_id, b"attacker-owned-key-0123456789ab!")
    report = AttackReport("impersonation")
    for i in range(attempts):
        own = attacker.attest(session_id, f"evil-{i}".encode())
        disguised = AttestedMessage(
            payload=own.payload,
            alpha=own.alpha,
            session_id=session_id,
            device_id=1,  # claim to be the victim device
            counter=receiver.counters.expected_recv(session_id),
        )
        try:
            receiver.verify(session_id, disguised)
        except AttestationError:
            report.record(accepted=False)
        else:
            report.record(accepted=True, note=f"impersonation {i}")
    return report


# ---------------------------------------------------------------------------
# Wire-level campaign (network adversary against a live cluster)
# ---------------------------------------------------------------------------

#: The wire campaign's drop, duplicate, reorder and replay probability.
WIRE_FAULT_PROBABILITY = 0.2


def run_wire_campaign(
    messages: int = 30,
    tamper_every: int = 7,
    seed: int = 0,
) -> AttackReport:
    """Drive a hostile network under live TNIC traffic.

    Builds a two-node cluster whose fabric drops, duplicates, reorders
    and replays packets (each with probability
    :data:`WIRE_FAULT_PROBABILITY`) and tampers with every
    *tamper_every*-th, sends *messages* payloads, and verifies
    exactly-once FIFO delivery of the genuine sequence.
    """
    counter = {"seen": 0}

    def tamper(packet):
        if packet.trailer is None or not packet.payload:
            return None
        counter["seen"] += 1
        if counter["seen"] % tamper_every == 0:
            body = materialize(packet.payload)  # segments may be views
            flipped = bytes([body[0] ^ 0xFF]) + body[1:]
            return packet.with_payload(flipped)
        return None

    fault = NetworkFault(
        drop_probability=WIRE_FAULT_PROBABILITY,
        duplicate_probability=WIRE_FAULT_PROBABILITY,
        reorder_probability=WIRE_FAULT_PROBABILITY,
        replay_probability=WIRE_FAULT_PROBABILITY,
        tamper=tamper,
    )
    cluster = Cluster(["attacker-side", "victim"], fault=fault, seed=seed)
    a_conn, b_conn = cluster.connect("attacker-side", "victim")
    payloads = [f"msg-{i}".encode() for i in range(messages)]
    for payload in payloads:
        cluster.run(auth_send(a_conn, payload))
    cluster.run()

    report = AttackReport("wire-campaign")
    delivered = []
    while True:
        item = recv(b_conn)
        if item is None:
            break
        delivered.append(item["payload"])
    in_order = delivered == payloads
    report.attempts = messages
    report.rejected = cluster["victim"].device.roce.verification_failures
    report.accepted = 0 if in_order else 1
    if not in_order:
        report.notes.append(
            f"delivery diverged: got {len(delivered)} items, "
            f"expected {len(payloads)} in FIFO order"
        )
    return report
