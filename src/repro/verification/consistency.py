"""The §6.2 consistency property, model-checked over two receivers.

"If correct receivers R1 and R2 receive valid messages m_i and m_j
respectively from sender S, then either (a) Bpg_i is a prefix of
Bpg_j, (b) Bpg_j is a prefix of Bpg_i, or (c) Bpg_i = Bpg_j."

The model: one (possibly equivocating) sender multicasts attested
messages; the adversary delivers any observed message to either
receiver, any number of times, in any order.  With TNIC counters each
receiver accepts a gap-free prefix of the sender's counter sequence,
so the two accepted sequences are always prefix-related.  The broken
variant drops the counter check, letting the adversary construct
diverging histories — which the checker exhibits.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterator

from repro.sim.record import Record, record
from repro.verification.model import SESSION_KEY, AttestedMsg, Mac

SENDER = "tnic_S"


@record
class TwoReceiverState(Record):
    """Global state: sender counter, per-receiver acceptance state."""

    send_cnt: int
    recv_cnt_r1: int
    recv_cnt_r2: int
    observed: tuple[AttestedMsg, ...]
    accepted_r1: tuple[str, ...]
    accepted_r2: tuple[str, ...]


class ConsistencyModel:
    """One sender, two receivers, adversary-controlled delivery.

    ``equivocating=True`` lets the sender attest *different* payloads
    for the same logical round (it still cannot reuse a counter — the
    hardware assigns them); the consistency lemma must hold regardless.
    """

    def __init__(
        self,
        max_sends: int = 3,
        equivocating: bool = True,
        counter_check: bool = True,
    ) -> None:
        self.max_sends = max_sends
        self.equivocating = equivocating
        self.counter_check = counter_check

    def initial_state(self) -> TwoReceiverState:
        return TwoReceiverState(
            send_cnt=0,
            recv_cnt_r1=0,
            recv_cnt_r2=0,
            observed=(),
            accepted_r1=(),
            accepted_r2=(),
        )

    # ------------------------------------------------------------------
    def transitions(
        self, state: TwoReceiverState
    ) -> Iterator[tuple[str, TwoReceiverState]]:
        yield from self._rule_send(state)
        yield from self._rule_deliver(state)

    def _rule_send(self, state):
        if state.send_cnt >= self.max_sends:
            return
        variants = ["a"]
        if self.equivocating:
            variants.append("b")  # a conflicting statement for the round
        for variant in variants:
            payload = f"m{state.send_cnt}{variant}"
            message = AttestedMsg(
                payload=payload,
                counter=state.send_cnt,
                device=SENDER,
                mac=Mac(SESSION_KEY, payload, state.send_cnt, SENDER),
            )
            yield (
                f"send({payload})",
                replace(
                    state,
                    send_cnt=state.send_cnt + 1,
                    observed=state.observed + (message,),
                ),
            )

    def _rule_deliver(self, state):
        for message in state.observed:
            for receiver in ("r1", "r2"):
                accepted, new_state = self._verify(state, message, receiver)
                if accepted:
                    yield (
                        f"deliver({message.payload}->{receiver})",
                        new_state,
                    )

    def _verify(self, state, message, receiver):
        if message.mac != Mac(
            SESSION_KEY, message.payload, message.counter, message.device
        ):
            return False, state
        expected = (
            state.recv_cnt_r1 if receiver == "r1" else state.recv_cnt_r2
        )
        if self.counter_check and message.counter != expected:
            return False, state
        if receiver == "r1":
            return True, replace(
                state,
                recv_cnt_r1=state.recv_cnt_r1 + 1,
                accepted_r1=state.accepted_r1 + (message.payload,),
            )
        return True, replace(
            state,
            recv_cnt_r2=state.recv_cnt_r2 + 1,
            accepted_r2=state.accepted_r2 + (message.payload,),
        )


def prefix_related(a: tuple[str, ...], b: tuple[str, ...]) -> bool:
    """(a) a prefix of b, (b) b prefix of a, or (c) equal."""
    shorter, longer = (a, b) if len(a) <= len(b) else (b, a)
    return longer[: len(shorter)] == shorter


def check_consistency(model: ConsistencyModel, max_depth: int = 7):
    """Explore the model; return (holds, counterexample_state, states)."""
    from repro.verification.checker import explore

    reached, explored = explore(model, max_depth)
    for state, labels in reached:
        if not prefix_related(state.accepted_r1, state.accepted_r2):
            return False, (state, labels), explored
    return True, None, explored
