"""BFT counter with leader failover — the §8.5 view-change extension.

The paper scopes view-change out of its prototype but sketches the
mechanism: "TNIC could adopt similar techniques as in TrInc ... In a
new leader's election, replicas can establish new connections with new
identifiers. As such, previous connections will not block execution."

This module implements that sketch on top of the Algorithm-3 protocol:

* Clients broadcast requests to *all* replicas; the leader of view v is
  ``replicas[v mod n]``.
* Followers arm a liveness watchdog per pending request; if no valid
  leader proof-of-execution arrives in time they broadcast an attested
  VIEW-CHANGE vote for view v+1.
* f+1 votes advance the view everywhere.  Every (replica, view) pair
  has its *own* attestation session — the "new connections with new
  identifiers" — so counters of the dead view cannot block the new one.
* The new leader re-executes every pending, unapplied request.
"""

from __future__ import annotations

from repro.core.attestation import AttestedMessage
from repro.crypto.hashing import sha256
from repro.sim.clock import Simulator
from repro.sim.record import Record, record
from repro.systems.bft import ClientRequest, Reply, _decode_poe, _encode_poe
from repro.systems.common import (
    EmulatedNetwork,
    EquivocationDetected,
    SystemMetrics,
    authenticators,
    await_quorum,
    provision,
)
from repro.tee.base import AttestationProvider

MAX_VIEWS = 8


@record
class ViewPoe(Record):
    kind = "poe"
    view: int
    sender: str
    attested: AttestedMessage


@record
class ViewChangeVote(Record):
    kind = "view-change"
    new_view: int
    sender: str
    attested: AttestedMessage


@record
class _WatchdogFired(Record):
    kind = "watchdog"
    batch_id: int
    view: int


class _Replica:
    """One replica; acts as leader or follower depending on the view."""

    def __init__(self, name: str, system: "ViewChangeBftCounter",
                 provider: AttestationProvider, silent: bool = False) -> None:
        self.name = name
        self.system = system
        self.provider = provider
        #: A crash-faulty replica: receives but never responds.
        self.silent = silent
        self.view = 0
        self.counter = 0
        self.applied: set[int] = set()
        self.pending: dict[int, ClientRequest] = {}
        self.simulated: dict[tuple[str, int], int] = {}
        self.votes: dict[int, set[str]] = {}
        self.voted_for: set[int] = set()
        self.detected_faults: list[str] = []
        self.view_changes_seen = 0
        self.inbox = system.network.register(name)
        #: One check table entry per (sender, view) session.
        self.authenticators = authenticators(provider, system.session_ids,
                                             system.providers)

    # ------------------------------------------------------------------
    def is_leader(self) -> bool:
        return self.system.leader_of(self.view) == self.name

    # ------------------------------------------------------------------
    def run(self):
        while True:
            message = yield self.inbox.get()
            if self.silent:
                continue
            if isinstance(message, ClientRequest):
                yield from self._on_request(message)
            elif isinstance(message, ViewPoe):
                yield from self._on_poe(message)
            elif isinstance(message, ViewChangeVote):
                yield from self._on_vote(message)
            elif isinstance(message, _WatchdogFired):
                yield from self._on_watchdog(message)

    # ------------------------------------------------------------------
    def _on_request(self, request: ClientRequest):
        if request.batch_id in self.applied:
            return
        self.pending[request.batch_id] = request
        if self.is_leader():
            yield from self._lead(request)
        else:
            self._arm_watchdog(request.batch_id)

    def _lead(self, request: ClientRequest):
        if request.batch_id in self.applied:
            return
        output = self.counter + request.increments
        self.counter = output
        self.applied.add(request.batch_id)
        attested = yield self.provider.attest(
            self.system.session_ids[self.name, self.view],
            _encode_poe(request.batch_id, request.increments, output),
        )
        poe = ViewPoe(self.view, self.name, attested)
        for peer in self.system.replica_names:
            if peer != self.name:
                self.system.network.send(peer, poe)
        self.system.network.send(
            self.system.client_name, Reply(self.name, request.batch_id, output)
        )

    def _arm_watchdog(self, batch_id: int) -> None:
        sim = self.system.sim
        view_at_arm = self.view
        trigger = _WatchdogFired(batch_id, view_at_arm)
        sim.delayed_call(
            self.system.watchdog_us, lambda: self.inbox.put(trigger)
        )

    def _on_watchdog(self, fired: _WatchdogFired):
        if fired.batch_id in self.applied or fired.view != self.view:
            return
        new_view = self.view + 1
        if new_view in self.voted_for or new_view >= MAX_VIEWS:
            return
        self.voted_for.add(new_view)
        attested = yield self.provider.attest(
            self.system.session_ids[self.name, self.view],
            f"VIEW-CHANGE|{new_view}".encode(),
        )
        vote = ViewChangeVote(new_view, self.name, attested)
        self._count_vote(new_view, self.name)
        for peer in self.system.replica_names:
            if peer != self.name:
                self.system.network.send(peer, vote)
        # Our own vote may complete the quorum (others' arrived first).
        yield from self._maybe_advance(new_view)

    def _on_poe(self, poe: ViewPoe):
        if poe.view != self.view:
            return  # stale view: previous connections cannot block us
        if poe.sender != self.system.leader_of(poe.view):
            self.detected_faults.append(
                f"PoE from non-leader {poe.sender} in view {poe.view}"
            )
            return
        try:
            payload = yield self.authenticators[poe.sender, poe.view].verify(
                poe.attested
            )
        except EquivocationDetected as exc:
            self.detected_faults.append(str(exc))
            return
        batch_id, increments, output = _decode_poe(payload)
        expected = self.simulated.get((poe.sender, poe.view), self.counter)
        expected += increments
        if output != expected:
            self.detected_faults.append(
                f"leader output {output} != simulated {expected}"
            )
            return
        self.simulated[(poe.sender, poe.view)] = expected
        if batch_id in self.applied:
            return
        self.applied.add(batch_id)
        self.pending.pop(batch_id, None)
        self.counter += increments
        self.system.network.send(
            self.system.client_name, Reply(self.name, batch_id, self.counter)
        )

    def _on_vote(self, vote: ViewChangeVote):
        if vote.new_view <= self.view:
            return
        try:
            payload = yield self.authenticators[
                vote.sender, vote.new_view - 1
            ].verify(vote.attested)
        except EquivocationDetected as exc:
            self.detected_faults.append(str(exc))
            return
        if not payload.startswith(b"VIEW-CHANGE|"):
            return
        self._count_vote(vote.new_view, vote.sender)
        yield from self._maybe_advance(vote.new_view)

    def _count_vote(self, new_view: int, sender: str) -> None:
        self.votes.setdefault(new_view, set()).add(sender)

    def _maybe_advance(self, new_view: int):
        quorum = self.system.f + 1
        if len(self.votes.get(new_view, ())) < quorum:
            return
        if new_view <= self.view:
            return
        self.view = new_view
        self.view_changes_seen += 1
        # "state transfers, e.g., view-change, can be performed
        # effectively": the new leader re-drives pending requests.
        if self.is_leader():
            for batch_id in sorted(self.pending):
                request = self.pending[batch_id]
                if batch_id not in self.applied:
                    yield from self._lead(request)
        else:
            for batch_id in sorted(self.pending):
                if batch_id not in self.applied:
                    self._arm_watchdog(batch_id)


class ViewChangeBftCounter:
    """The 2f+1 BFT counter with leader-failover support."""

    def __init__(
        self,
        provider_name: str = "tnic",
        f: int = 1,
        seed: int = 0,
        silent_replicas: set[str] | None = None,
        watchdog_us: float = 400.0,
    ) -> None:
        if f < 1:
            raise ValueError("f must be >= 1")
        self.sim = Simulator()
        self.network = EmulatedNetwork(self.sim)
        self.f = f
        self.watchdog_us = watchdog_us
        self.replica_names = [f"r{i}" for i in range(2 * f + 1)]
        self.client_name = "client"
        # One session per (replica, view): the "new connections with new
        # identifiers" of §8.5.
        self.providers, self.session_ids = provision(
            self.sim, provider_name, self.replica_names, seed,
            session_keys={
                (name, view): sha256("view-session", name, view)
                for view in range(MAX_VIEWS) for name in self.replica_names
            },
        )
        silent = silent_replicas or set()
        self.replicas = {
            name: _Replica(name, self, self.providers[name],
                           silent=name in silent)
            for name in self.replica_names
        }
        self.client_inbox = self.network.register(self.client_name)
        self.metrics = SystemMetrics(sim=self.sim, system="bft_viewchange")
        self.aborted = False
        for replica in self.replicas.values():
            self.sim.process(replica.run())

    # ------------------------------------------------------------------
    def leader_of(self, view: int) -> str:
        return self.replica_names[view % len(self.replica_names)]

    # ------------------------------------------------------------------
    def run_workload(
        self, batches: int, timeout_us: float = 50_000.0
    ) -> SystemMetrics:
        return self.sim.run(self.sim.process(self._client(batches, timeout_us)))

    def _client(self, batches: int, timeout_us: float):
        self.metrics.started_at = self.sim.now
        quorum = self.f + 1
        for batch_id in range(batches):
            sent_at = self.sim.now
            request = ClientRequest(batch_id, 1)
            for name in self.replica_names:
                self.network.send(name, request)
            reply = yield from await_quorum(
                self.client_inbox, sent_at + timeout_us, quorum,
                lambda reply: (isinstance(reply, Reply)
                               and reply.batch_id == batch_id),
            )
            if reply is None:
                self.aborted = True
                break
            self.metrics.record(self.sim.now - sent_at)
        self.metrics.finished_at = self.sim.now
        return self.metrics

    # ------------------------------------------------------------------
    def current_views(self) -> dict[str, int]:
        return {name: r.view for name, r in self.replicas.items()}
