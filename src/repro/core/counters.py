"""The Counters store of the attestation kernel (§4.1).

"TNIC holds two counters per session in the Counters store: send_cnts,
which holds sending messages, and recv_cnts, which holds the latest
seen counter value for each session. The counters represent the
messages' timestamp and are increased monotonically and
deterministically after every send and receive operation to ensure
that unique messages are assigned to unique counters for
non-equivocation. Consequently, no messages can be lost, re-ordered,
or doubly executed."
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class _SessionCounters:
    send_cnt: int = 0
    recv_cnt: int = 0


@dataclass
class CounterStore:
    """Per-session monotonic send/receive counters.

    The *only* mutations are a post-increment of ``send_cnt`` on
    transmission and an increment of ``recv_cnt`` after a verified
    reception, both made by the attestation kernel in place on the
    record :meth:`session` gave it.  There is deliberately no decrement
    or reset API — the monotonicity of these counters is what
    non-equivocation rests on.
    """

    _sessions: dict[int, _SessionCounters] = field(default_factory=dict)

    def session(self, session_id: int) -> _SessionCounters:
        """The counter record of *session_id*, built on its first use.

        The attestation kernel keeps the record it gets here and bumps
        its fields in place, so each message costs no lookup in this
        store.
        """
        counters = self._sessions.get(session_id)
        if counters is None:
            if session_id < 0:
                raise ValueError(f"invalid session id {session_id}")
            counters = self._sessions[session_id] = _SessionCounters()
        return counters

    # ------------------------------------------------------------------
    # Receive side
    # ------------------------------------------------------------------
    def expected_recv(self, session_id: int) -> int:
        """Counter value the next in-order message must carry."""
        return self.session(session_id).recv_cnt

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[int, tuple[int, int]]:
        """(send_cnt, recv_cnt) per session, for diagnostics."""
        return {
            sid: (c.send_cnt, c.recv_cnt) for sid, c in sorted(self._sessions.items())
        }

    def to_dict(self) -> dict[str, dict[str, int]]:
        """JSON-ready view, consumed by flight-recorder state providers."""
        return {
            str(sid): {"send_cnt": c.send_cnt, "recv_cnt": c.recv_cnt}
            for sid, c in sorted(self._sessions.items())
        }
