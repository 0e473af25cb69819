"""Bounded explicit-state exploration and lemma checking.

:func:`explore` enumerates every state reachable within a depth bound,
memoising visited states (traces are part of the state, so distinct
histories are distinct states — what trace properties need).
:func:`check_lemma` evaluates a trace predicate over every reachable
trace and reports the first counterexample.

This is the explicit-state analogue of Tamarin's constraint solving:
sound up to the bound, and — like Tamarin's sanity lemmas — paired with
reachability checks confirming the protocol can actually execute.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.sim.record import Record, record
from repro.verification.model import Event


@record
class CheckResult(Record):
    """Outcome of checking one lemma."""

    lemma: str
    holds: bool
    states_explored: int
    counterexample: tuple[Event, ...] | None = None
    counterexample_labels: tuple[str, ...] | None = None

    def describe(self) -> str:
        status = "verified" if self.holds else "VIOLATED"
        text = f"{self.lemma}: {status} ({self.states_explored} states)"
        if not self.holds and self.counterexample_labels:
            text += "\n  counterexample: " + " -> ".join(self.counterexample_labels)
        return text


def explore(model, max_depth: int = 8):
    """Enumerate reachable (state, rule-label-path) pairs up to a bound.

    Returns ``(final_states, states_explored)`` where *final_states* is
    a list of ``(state, labels)`` for every reachable state (not only
    leaves) — trace properties must hold at every point of execution.
    """
    initial = model.initial_state()
    frontier: list[tuple[object, tuple[str, ...]]] = [(initial, ())]
    seen = {initial}
    reached: list[tuple[object, tuple[str, ...]]] = [(initial, ())]
    depth = 0
    while frontier and depth < max_depth:
        next_frontier: list[tuple[object, tuple[str, ...]]] = []
        for state, labels in frontier:
            for label, successor in model.transitions(state):
                if successor in seen:
                    continue
                seen.add(successor)
                entry = (successor, labels + (label,))
                next_frontier.append(entry)
                reached.append(entry)
        frontier = next_frontier
        depth += 1
    return reached, len(seen)


def check_lemma(
    model,
    lemma: Callable[[tuple[Event, ...]], bool],
    max_depth: int = 8,
    name: str | None = None,
) -> CheckResult:
    """Check *lemma* over every trace reachable within *max_depth*."""
    reached, explored = explore(model, max_depth)
    for state, labels in reached:
        trace = state.trace
        if not lemma(trace):
            return CheckResult(
                lemma=name or lemma.__name__,
                holds=False,
                states_explored=explored,
                counterexample=trace,
                counterexample_labels=labels,
            )
    return CheckResult(
        lemma=name or lemma.__name__, holds=True, states_explored=explored
    )


def reachable(
    model, predicate: Callable[[tuple[Event, ...]], bool], max_depth: int = 8
) -> bool:
    """Sanity lemma: is a trace satisfying *predicate* reachable?

    Mirrors Tamarin's `sanity`/`send_sanity` lemmas, which "ensure that
    the protocol can be executed as intended".
    """
    reached, _ = explore(model, max_depth)
    return any(predicate(state.trace) for state, _ in reached)


def events(trace: Iterable[Event], kind: str) -> list[Event]:
    """All action facts of *kind* in trace order."""
    return [e for e in trace if e.kind == kind]
