"""Symbolic transition systems for the TNIC protocols.

Assumptions mirror Tamarin's symbolic model (Appendix B): terms are
atomic, cryptographic functions are perfect (a MAC term can only be
produced by a principal holding its key; collisions are impossible),
and the attacker "can read and delete all messages that are sent on the
network and modify them in accordance with the set of defined
functions" — i.e. replay observed attested messages, reorder
deliveries, drop anything, and inject messages MAC'd with keys it
knows.

States are immutable and hashable so the checker can memoise; each
transition is labelled with the rule that fired, and action facts
(:class:`Event`) accumulate in the trace exactly like Tamarin's action
facts ``S_e(m)`` and ``A_e(m)``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterator

from repro.sim.record import Record, record

# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

#: Key names.  The shared session key is known only to the two TNICs;
#: the adversary owns ADV_KEY and can MAC anything with it.
SESSION_KEY = "k_session"
ADV_KEY = "k_adv"


@record
class Mac(Record):
    """An opaque MAC term mac(key, payload, counter, device)."""

    key: str
    payload: str
    counter: int
    device: str


@record
class AttestedMsg(Record):
    """A message + attestation as it appears on the wire."""

    payload: str
    counter: int
    device: str
    mac: Mac


@record
class Event(Record):
    """An action fact in the execution trace."""

    kind: str  # "send" | "accept" | "vendor_done" | "device_done"
    payload: str = ""
    counter: int = -1
    actor: str = ""


# ---------------------------------------------------------------------------
# Communication-phase model (Algorithm 1)
# ---------------------------------------------------------------------------


@record
class CommState(Record):
    """One global state of the communication model."""

    send_cnt: int
    recv_cnt: int
    #: Everything the adversary has observed on the wire (persistent).
    observed: tuple[AttestedMsg, ...]
    trace: tuple[Event, ...]


class TnicCommunicationModel:
    """Algorithm 1 under an adversary-controlled network.

    Parameters
    ----------
    max_sends:
        Bound on the number of distinct messages the sender emits.
    adversary_payloads:
        Payload atoms the adversary may try to inject.
    compromised:
        If True the adversary knows the session key (models the
        out-of-band key-compromise scenarios of Appendix B).
    """

    sender_device = "tnic_A"

    def __init__(
        self,
        max_sends: int = 3,
        adversary_payloads: tuple[str, ...] = ("evil",),
        compromised: bool = False,
    ) -> None:
        self.max_sends = max_sends
        self.adversary_payloads = adversary_payloads
        self.adversary_keys = (ADV_KEY, SESSION_KEY) if compromised else (ADV_KEY,)

    # ------------------------------------------------------------------
    def initial_state(self) -> CommState:
        return CommState(send_cnt=0, recv_cnt=0, observed=(), trace=())

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------
    def transitions(self, state: CommState) -> Iterator[tuple[str, CommState]]:
        yield from self._rule_send(state)
        yield from self._rule_deliver(state)
        yield from self._rule_inject(state)
        yield from self._rule_splice(state)

    def _rule_send(self, state: CommState) -> Iterator[tuple[str, CommState]]:
        """send_msg: attest with the session key, publish on the wire."""
        if state.send_cnt >= self.max_sends:
            return
        payload = f"m{state.send_cnt}"
        message = AttestedMsg(
            payload=payload,
            counter=state.send_cnt,
            device=self.sender_device,
            mac=Mac(SESSION_KEY, payload, state.send_cnt, self.sender_device),
        )
        yield (
            f"send({payload})",
            replace(
                state,
                send_cnt=state.send_cnt + 1,
                observed=state.observed + (message,),
                trace=state.trace
                + (Event("send", payload, message.counter, self.sender_device),),
            ),
        )

    def _rule_deliver(self, state: CommState) -> Iterator[tuple[str, CommState]]:
        """recv_msg: the adversary delivers ANY observed message (any
        order, any number of times); the receiver runs Verify()."""
        for message in state.observed:
            accepted, new_state = self._receiver_verify(state, message)
            label = f"deliver({message.payload},cnt={message.counter})"
            if accepted:
                yield label, new_state
            # Rejected deliveries do not change state; emitting them
            # would only re-yield identical states, so they are pruned.

    def _rule_inject(self, state: CommState) -> Iterator[tuple[str, CommState]]:
        """The adversary crafts messages with keys it knows."""
        for key in self.adversary_keys:
            for payload in self.adversary_payloads:
                counter = state.recv_cnt  # best possible guess
                message = AttestedMsg(
                    payload=payload,
                    counter=counter,
                    device=self.sender_device,  # impersonation attempt
                    mac=Mac(key, payload, counter, self.sender_device),
                )
                accepted, new_state = self._receiver_verify(state, message)
                if accepted:
                    yield f"inject({payload},key={key})", new_state

    def _rule_splice(self, state: CommState) -> Iterator[tuple[str, CommState]]:
        """The adversary re-uses a *genuine* MAC term on modified fields
        (different payload, or a retargeted counter): the symbolic MAC
        check compares whole terms, so splicing can never verify — but
        the rule must exist so the checker explores the attempt."""
        for message in state.observed:
            for payload in self.adversary_payloads:
                spliced = AttestedMsg(
                    payload=payload,
                    counter=state.recv_cnt,
                    device=message.device,
                    mac=message.mac,  # genuine MAC, wrong fields
                )
                accepted, new_state = self._receiver_verify(state, spliced)
                if accepted:
                    yield (
                        f"splice({message.payload}->{payload})",
                        new_state,
                    )

    # ------------------------------------------------------------------
    # The receiver's Verify() — Algorithm 1, lines 7-8
    # ------------------------------------------------------------------
    def _receiver_verify(
        self, state: CommState, message: AttestedMsg
    ) -> tuple[bool, CommState]:
        if not self._mac_ok(message):
            return False, state
        if message.counter != state.recv_cnt:  # continuity check
            return False, state
        return True, replace(
            state,
            recv_cnt=state.recv_cnt + 1,
            trace=state.trace
            + (Event("accept", message.payload, message.counter, "tnic_B"),),
        )

    @staticmethod
    def _mac_ok(message: AttestedMsg) -> bool:
        """Perfect-crypto MAC check: the term must be the session-key MAC
        over exactly these fields."""
        return message.mac == Mac(
            SESSION_KEY, message.payload, message.counter, message.device
        )


class BrokenNoCounterModel(TnicCommunicationModel):
    """Mutant: Verify() without the continuity check.

    Used to validate the checker: replay and reordering lemmas MUST
    fail against this model.
    """

    def _receiver_verify(self, state, message):
        if not self._mac_ok(message):
            return False, state
        return True, replace(
            state,
            recv_cnt=state.recv_cnt + 1,
            trace=state.trace
            + (Event("accept", message.payload, message.counter, "tnic_B"),),
        )


class BrokenNoMacModel(TnicCommunicationModel):
    """Mutant: Verify() without the MAC check (authentication removed)."""

    @staticmethod
    def _mac_ok(message):
        return True


# ---------------------------------------------------------------------------
# Attestation-phase model (Figure 3)
# ---------------------------------------------------------------------------


@record
class AttState(Record):
    """Global state of the remote-attestation model."""

    nonce_sent: bool
    reports: tuple[str, ...]  # report terms observed on the network
    trace: tuple[Event, ...]


class AttestationPhaseModel:
    """Figure 3 with an adversary that replays and forges reports.

    Report terms are rendered symbolically as
    ``report(<device>, <binary>, <nonce>)``; only a genuine device can
    produce a report bound to the genuine HW key, and the vendor accepts
    exactly reports over its fresh nonce, a genuine device and a known
    binary.  The lemma of Eq. 1 says vendor completion implies prior
    device completion.
    """

    GENUINE = "report(genuine_dev,genuine_bin,fresh_nonce)"
    STALE = "report(genuine_dev,genuine_bin,old_nonce)"
    COUNTERFEIT = "report(fake_dev,genuine_bin,fresh_nonce)"
    ROGUE_BINARY = "report(genuine_dev,rogue_bin,fresh_nonce)"

    def __init__(self, allow_genuine: bool = True) -> None:
        #: allow_genuine=False explores whether the vendor can ever
        #: finish without a genuine device participating (it must not).
        self.allow_genuine = allow_genuine

    def initial_state(self) -> AttState:
        return AttState(nonce_sent=False, reports=(self.STALE,), trace=())

    def transitions(self, state: AttState) -> Iterator[tuple[str, AttState]]:
        if not state.nonce_sent:
            yield "vendor_nonce", replace(state, nonce_sent=True)
            return
        # Genuine device responds to the fresh nonce.
        if self.allow_genuine and self.GENUINE not in state.reports:
            yield (
                "device_report",
                replace(
                    state,
                    reports=state.reports + (self.GENUINE,),
                    trace=state.trace + (Event("device_done", actor="tnic"),),
                ),
            )
        # Adversary offers counterfeit / rogue / stale reports any time.
        for forged in (self.COUNTERFEIT, self.ROGUE_BINARY):
            if forged not in state.reports:
                yield f"forge({forged})", replace(
                    state, reports=state.reports + (forged,)
                )
        # Vendor verification attempts over every observed report.
        for report in state.reports:
            if self._vendor_accepts(report):
                if not any(e.kind == "vendor_done" for e in state.trace):
                    yield (
                        f"vendor_accept({report})",
                        replace(
                            state,
                            trace=state.trace
                            + (Event("vendor_done", actor="ip_vendor"),),
                        ),
                    )

    @staticmethod
    def _vendor_accepts(report: str) -> bool:
        """Steps 4-5: HW-key root, known measurement, fresh nonce."""
        return report == AttestationPhaseModel.GENUINE
