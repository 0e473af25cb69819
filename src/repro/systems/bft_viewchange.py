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
from repro.sim.latency import SYSTEM_NET_HOP_US
from repro.sim.record import Record, record
from repro.systems.bft import ClientRequest, Reply, _decode_poe, _encode_poe
from repro.systems.common import (
    Client,
    EmulatedNetwork,
    Station,
    SystemMetrics,
    authenticators,
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


class _Replica(Station):
    """One replica; acts as leader or follower depending on the view.

    A station: each message is a job whose stages (a check, an attest)
    end in the steps below.  A watchdog joins the queue as a message
    sent one hop before it is due, so the replica takes it in the order
    it would arrive among the PoEs and votes in flight.
    """

    def __init__(self, name: str, system: "ViewChangeBftCounter",
                 provider: AttestationProvider, silent: bool = False) -> None:
        super().__init__(system.network, name)
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
        #: One check table entry per (sender, view) session.
        self.authenticators = authenticators(provider, system.session_ids,
                                             system.providers)
        #: The job in service: its message, and the requests it still
        #: has to lead with the batch and output of the one in attest.
        self._message = None
        self._to_lead: list[ClientRequest] = []
        self._led = (0, 0)

    # ------------------------------------------------------------------
    def is_leader(self) -> bool:
        return self.system.leader_of(self.view) == self.name

    # ------------------------------------------------------------------
    def start(self, message, start: float) -> None:
        self._message = message
        if self.silent:
            self.next()
        elif isinstance(message, ClientRequest):
            self._on_request(message, start)
        elif isinstance(message, ViewPoe):
            self._on_poe(message, start)
        elif isinstance(message, ViewChangeVote):
            self._on_vote(message, start)
        elif isinstance(message, _WatchdogFired):
            self._on_watchdog(message, start)
        else:
            self.next()

    # ------------------------------------------------------------------
    def _on_request(self, request: ClientRequest, start: float) -> None:
        if request.batch_id in self.applied:
            return self.next()
        self.pending[request.batch_id] = request
        if self.is_leader():
            self._to_lead = [request]
            return self._lead_next(start)
        self._arm_watchdog(request.batch_id, start)
        self.next()

    def _lead_next(self, start: float | None = None) -> None:
        """Execute the next request to lead and attest its PoE; end the
        job once none is left."""
        if not self._to_lead:
            return self.next()
        request = self._to_lead.pop(0)
        output = self.counter + request.increments
        self.counter = output
        self.applied.add(request.batch_id)
        self._led = (request.batch_id, output)
        self.provider.attest(
            self.system.session_ids[self.name, self.view],
            _encode_poe(request.batch_id, request.increments, output),
            self._broadcast, start)

    def _broadcast(self, attested: AttestedMessage) -> None:
        poe = ViewPoe(self.view, self.name, attested)
        for peer in self.system.replica_names:
            if peer != self.name:
                self.system.network.send(peer, poe)
        batch_id, output = self._led
        self.system.network.send(
            self.system.client_name, Reply(self.name, batch_id, output)
        )
        self._lead_next()

    def _arm_watchdog(self, batch_id: int, armed: float) -> None:
        """Send this replica a watchdog due ``watchdog_us`` after the
        instant *armed*, as if over one hop."""
        sim = self.sim
        due = armed + self.system.watchdog_us
        sent = due - SYSTEM_NET_HOP_US
        sim.call_at(sent if sent > sim._now else sim._now,
                    lambda fired: self._submit(fired, due, None),
                    _WatchdogFired(batch_id, self.view))

    def _on_watchdog(self, fired: _WatchdogFired, start: float) -> None:
        if fired.batch_id in self.applied or fired.view != self.view:
            return self.next()
        new_view = self.view + 1
        if new_view in self.voted_for or new_view >= MAX_VIEWS:
            return self.next()
        self.voted_for.add(new_view)
        self.provider.attest(
            self.system.session_ids[self.name, self.view],
            f"VIEW-CHANGE|{new_view}".encode(),
            self._vote, start)

    def _vote(self, attested: AttestedMessage) -> None:
        new_view = self.view + 1
        vote = ViewChangeVote(new_view, self.name, attested)
        self.votes.setdefault(new_view, set()).add(self.name)
        for peer in self.system.replica_names:
            if peer != self.name:
                self.system.network.send(peer, vote)
        # Our own vote may complete the quorum (others' arrived first).
        self._maybe_advance(new_view)

    def _on_poe(self, poe: ViewPoe, start: float) -> None:
        if poe.view != self.view:
            # Stale view: previous connections cannot block us.
            return self.next()
        if poe.sender != self.system.leader_of(poe.view):
            self.detected_faults.append(
                f"PoE from non-leader {poe.sender} in view {poe.view}")
            return self.next()
        self.authenticators[poe.sender, poe.view].verify(
            poe.attested, self._apply, start)

    def _apply(self, payload: bytes | None, violation) -> None:
        if violation is not None:
            self.detected_faults.append(str(violation))
            return self.next()
        poe = self._message
        batch_id, increments, output = _decode_poe(payload)
        expected = self.simulated.get((poe.sender, poe.view), self.counter)
        expected += increments
        if output != expected:
            self.detected_faults.append(
                f"leader output {output} != simulated {expected}")
            return self.next()
        self.simulated[(poe.sender, poe.view)] = expected
        if batch_id not in self.applied:
            self.applied.add(batch_id)
            self.pending.pop(batch_id, None)
            self.counter += increments
            self.system.network.send(self.system.client_name,
                                     Reply(self.name, batch_id, self.counter))
        self.next()

    def _on_vote(self, vote: ViewChangeVote, start: float) -> None:
        if vote.new_view <= self.view:
            return self.next()
        self.authenticators[vote.sender, vote.new_view - 1].verify(
            vote.attested, self._tally, start)

    def _tally(self, payload: bytes | None, violation) -> None:
        if violation is not None:
            self.detected_faults.append(str(violation))
            return self.next()
        if not payload.startswith(b"VIEW-CHANGE|"):
            return self.next()
        vote = self._message
        self.votes.setdefault(vote.new_view, set()).add(vote.sender)
        self._maybe_advance(vote.new_view)

    def _maybe_advance(self, new_view: int) -> None:
        """Enter *new_view* on a quorum of votes, then end the job: a new
        leader first re-leads every pending request, one attest each."""
        quorum = self.system.f + 1
        if len(self.votes.get(new_view, ())) < quorum or new_view <= self.view:
            return self.next()
        self.view = new_view
        self.view_changes_seen += 1
        # "state transfers, e.g., view-change, can be performed
        # effectively": the new leader re-drives pending requests.
        unapplied = [self.pending[batch_id]
                     for batch_id in sorted(self.pending)
                     if batch_id not in self.applied]
        if self.is_leader():
            self._to_lead = unapplied
            return self._lead_next()
        for request in unapplied:
            self._arm_watchdog(request.batch_id, self.sim._now)
        self.next()


class _Client(Client):
    """The client: one batch at a time, broadcast to every replica and
    committed on f+1 identical replies."""

    def submit(self, batches: int, timeout_us: float) -> SystemMetrics:
        self._batches = batches
        self._timeout_us = timeout_us
        self._batch_id = -1
        return self.run(self.begin)

    def send_next(self) -> None:
        system = self.system
        self._batch_id = batch_id = self._batch_id + 1
        if batch_id == self._batches:
            return self.end()
        self.sent_at = self.sim.now
        request = ClientRequest(batch_id, 1)
        for name in system.replica_names:
            system.network.send(name, request)
        self.await_quorum(
            self.sent_at + self._timeout_us, system.f + 1,
            lambda reply: (isinstance(reply, Reply)
                           and reply.batch_id == batch_id),
            self.replied,
        )


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
        self.client = _Client(self, self.client_name)
        self.metrics = SystemMetrics(sim=self.sim, system="bft_viewchange")
        self.aborted = False

    # ------------------------------------------------------------------
    def leader_of(self, view: int) -> str:
        return self.replica_names[view % len(self.replica_names)]

    # ------------------------------------------------------------------
    def run_workload(
        self, batches: int, timeout_us: float = 50_000.0
    ) -> SystemMetrics:
        return self.client.submit(batches, timeout_us)

    # ------------------------------------------------------------------
    def current_views(self) -> dict[str, int]:
        return {name: r.view for name, r in self.replicas.items()}
