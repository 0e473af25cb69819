"""BFT replicated counter over TNIC (§7, Appendix C.3, Algorithm 3).

A leader-based SMR protocol for N = 2f+1 replicas (instead of the
classical 3f+1): the leader executes client increments, attests a
proof-of-execution (PoE) binding the request to its output, and
broadcasts it.  Followers verify the PoE (transferable authentication +
per-sender counters), *simulate* the leader's action to validate the
claimed output, apply it, attest their own PoE and reply to the client.
The client commits on f+1 identical replies.

Each replica is a station (:class:`~repro.systems.common.Station`): a
message is a job of timed stages (PoE check, attest), each a scheduled
call whose step is one Algorithm 3 step; leader and follower check
a PoE with the same ``_validate_sender`` step.  Byzantine
behaviours are injectable (a wrong output on any replica, equivocation
and replay on the leader); the protocol's checks expose them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.attestation import AttestedMessage
from repro.sim.clock import Simulator
from repro.sim.instrument import NULL_SPAN, span_begin
from repro.sim.record import Record, record
from repro.systems.common import (
    Client,
    EmulatedNetwork,
    Station,
    SystemMetrics,
    authenticators,
    provision,
)
from repro.tee.base import AttestationProvider

# ---------------------------------------------------------------------------
# Wire messages
# ---------------------------------------------------------------------------


@record
class ClientRequest(Record):
    kind = "request"
    batch_id: int
    increments: int  # batching factor: increments carried per message


@record
class ReadRequest(Record):
    """A client read of the counter, answered by every replica; the
    client trusts the value on f+1 identical replies."""

    kind = "read"
    read_id: int


@record
class ProofOfExecution(Record):
    kind = "poe"
    sender: str
    attested: AttestedMessage  # payload encodes (batch_id, increments, output)


@record
class Reply(Record):
    kind = "reply"
    sender: str
    batch_id: int
    output: int


#: "We implement network batching as part of the application's message
#: format": each batched request contributes its marshalled bytes to
#: the PoE payload, so attestation cost grows with the batch.  An
#: increment request is small — an op code plus client metadata.
REQUEST_BYTES = 32


def _encode_poe(batch_id: int, increments: int, output: int) -> bytes:
    header = f"{batch_id}|{increments}|{output}|"
    return header.encode() + b"R" * (increments * REQUEST_BYTES)


def _decode_poe(payload: bytes) -> tuple[int, int, int]:
    batch_id, increments, output = payload.decode().split("|")[:3]
    return int(batch_id), int(increments), int(output)


@dataclass
class ByzantineBehaviour:
    """Faults a replica can be configured to exhibit.  ``wrong_output``
    bends any replica's counter (and so its PoE and replies);
    ``equivocate`` and ``replay`` are leader behaviours."""

    equivocate: bool = False
    wrong_output: bool = False
    replay: bool = False


# ---------------------------------------------------------------------------
# Replicas
# ---------------------------------------------------------------------------


class _Replica(Station):
    """One BFT replica, the leader (``r0``) or a follower: a station
    whose stages are the steps of Algorithm 3."""

    def __init__(self, name: str, system: "BftCounter",
                 provider: AttestationProvider,
                 behaviour: ByzantineBehaviour | None = None) -> None:
        super().__init__(system.network, name)
        self.system = system
        self.provider = provider
        self.behaviour = behaviour or ByzantineBehaviour()
        self.leads = name == system.leader_name
        self.counter = 0
        self.applied_batches: set[int] = set()
        #: Simulated state of every other replica, the counter each
        #: *should* have ("each replica maintains copies of counters that
        #: represent the expected counter values for all other nodes").
        self.simulated: dict[str, int] = {}
        self.detected_faults: list[str] = []
        self.authenticators = authenticators(provider, system.session_ids,
                                             system.providers)
        #: Followers that acked each batch, until every one has.
        self.acks_per_batch: dict[int, set[str]] = {}
        #: The output of each batch the leader ran, until its first ack.
        self._outputs: dict[int, int] = {}
        self._last_attested: AttestedMessage | None = None
        #: The job in service: its message, the leader's path ("ok",
        #: "replay", "equivocate" with the forked PoEs still to send), a
        #: follower's batch and, traced, the job's spans.
        self._message = None
        self._path = "ok"
        self._forks: list[tuple[str, bytes]] = []
        self._batch_id = 0
        self._span = self._stage = NULL_SPAN

    def start(self, message, start: float) -> None:
        """Each message goes to its role's first step (Algorithm 3,
        leader() and follower()).  A follower ignores client requests:
        only the leader orders them."""
        self._message = message
        if isinstance(message, ProofOfExecution):
            auth = self.authenticators.get(message.sender)
            if auth is None:  # names no replica: nothing can check it
                self.detected_faults.append(
                    f"PoE from unknown sender {message.sender!r}")
                return self.next()
            auth.verify(message.attested, self._validate_sender, start)
        elif isinstance(message, ReadRequest):
            self.sim.call_at(start + self.provider.attest_latency_us(32),
                             self._answer_read, message)
        elif self.leads and isinstance(message, ClientRequest):
            self._lead(message, start)
        else:
            self.next()

    def received(self, message, parent) -> None:
        """Open the spans of a PoE check or of the leader's round."""
        if isinstance(message, ProofOfExecution):
            self._span = span_begin(
                self.sim, "bft.leader_ack" if self.leads else "bft.follower",
                parent=parent, node=self.name)
            self._stage = self._span.child("bft.rx_verify")
        elif self.leads and isinstance(message, ClientRequest):
            self._span = span_begin(self.sim, "bft.leader", parent=parent,
                                    node=self.name, batch=message.batch_id)
            if self._path == "ok":
                self._stage = self._span.child("attest.hmac")

    def _apply(self, increments: int) -> int:
        """Execute a batch; a ``wrong_output`` replica adds 7 more."""
        self.counter += increments
        if self.behaviour.wrong_output:
            self.counter += 7
        return self.counter

    def _answer_read(self, read: ReadRequest) -> None:
        """Reply to a quorum read once signed with C_priv (Appendix C.1:
        replies to clients are device-signed, not session-attested, so
        no session counter is consumed)."""
        self.system.network.send(
            self.system.client_name,
            Reply(self.name, -read.read_id - 1, self.counter),
        )
        self.next()

    def _lead(self, request: ClientRequest, start: float) -> None:
        """leader(): execute the client's batch and attest the PoE once.
        A Byzantine leader instead re-sends a stale PoE on arrival, or
        attests a forked statement per follower."""
        output = self._apply(request.increments)
        self._outputs[request.batch_id] = output
        if self.behaviour.replay and self._last_attested is not None:
            self._path = "replay"
            self.sim.call_at(start, self._broadcast, None)
        elif self.behaviour.equivocate:
            self._path = "equivocate"
            self._forks = [
                (follower, _encode_poe(request.batch_id, request.increments,
                                       output + offset))
                for offset, follower in enumerate(self.system.followers, 1)
            ]
            self._equivocate(None, start)
        else:
            self._path = "ok"
            self.provider.attest(
                self.system.session_ids[self.name],
                _encode_poe(request.batch_id, request.increments, output),
                self._broadcast, start)

    def _broadcast(self, attested: AttestedMessage | None) -> None:
        """leader(), once the PoE is attested: the equivocation-free
        multicast, one attested message identical for every follower (a
        replaying leader multicasts the last one again)."""
        span = self._span
        if self._path == "ok":
            if span is not NULL_SPAN:
                self._stage.end()
            self._last_attested = attested
        poe = ProofOfExecution(self.name, self._last_attested)
        for follower in self.system.followers:
            self.system.network.send(follower, poe, parent=span)
        if span is not NULL_SPAN:
            span.end(status=self._path)
        self.next()

    def _equivocate(self, attested: AttestedMessage | None,
                    start: float | None = None) -> None:
        """An equivocating leader makes different statements to
        different followers, each with its own attestation, hence its
        own counter value: it sends each its forked PoE once attested."""
        if attested is not None:
            self.system.network.send(
                self._forks.pop(0)[0],
                ProofOfExecution(self.name, attested),
                parent=self._span)
        if not self._forks:
            self._span.end(status="equivocate")
            return self.next()
        self.provider.attest(self.system.session_ids[self.name],
                             self._forks[0][1], self._equivocate, start)

    def _validate_sender(self, payload: bytes | None, violation) -> None:
        """validate_sender() / validate_follower(), once the TNIC has
        checked the PoE (transferable authentication, counter
        continuity): simulate and record the sender's state change.  The
        leader then counts the ack; a follower goes on to :meth:`_follow`."""
        message, span = self._message, self._span
        if violation is not None:
            self._stage.end(status="rejected")
            span.end(status="rejected")
            self.detected_faults.append(str(violation))
            return self.next()
        if span is not NULL_SPAN:
            self._stage.end()
        batch_id, increments, output = _decode_poe(payload)
        expected = self.simulated.get(message.sender, 0) + increments
        if output != expected:
            self.detected_faults.append(
                f"output mismatch from {message.sender}: "
                f"claimed {output}, simulated {expected}"
            )
            span.end(status="mismatch")
            return self.next()
        self.simulated[message.sender] = expected
        if not self.leads:
            return self._follow(batch_id, increments, span)
        acks = self.acks_per_batch.setdefault(batch_id, set())
        if message.sender in acks:
            span.end(status="duplicate")
            return self.next()
        acks.add(message.sender)
        if len(acks) == len(self.system.followers):
            del self.acks_per_batch[batch_id]  # every follower has acked
        # incr_req_acks_if_not_incr_before + the first ack's reply.
        output = self._outputs.pop(batch_id, None)
        if output is not None:
            self.system.network.send(self.system.client_name,
                                     Reply(self.name, batch_id, output),
                                     parent=span)
        if span is not NULL_SPAN:
            span.end(status="ok")
        self.next()

    def _follow(self, batch_id: int, increments: int, span) -> None:
        """follower(): apply a validated batch once and attest this
        replica's own PoE."""
        if batch_id in self.applied_batches:
            # Not a fault: every batch reaches a follower twice, from
            # the leader and forwarded by a peer.
            if span is not NULL_SPAN:
                span.end(status="duplicate")
            return self.next()  # in_order_not_applied()
        self.applied_batches.add(batch_id)
        own_payload = _encode_poe(batch_id, increments,
                                  self._apply(increments))
        if span is not NULL_SPAN:
            self._stage = span.child("attest.hmac")
        self._batch_id = batch_id
        self.provider.attest(self.system.session_ids[self.name],
                             own_payload, self._followed)

    def _followed(self, attested: AttestedMessage) -> None:
        """The rest of follower(): send the own PoE to the leader and
        the other followers, and reply to the client."""
        span = self._span
        if span is not NULL_SPAN:
            self._stage.end()
        poe = ProofOfExecution(self.name, attested)
        network = self.system.network
        network.send(self.system.leader_name, poe, parent=span)
        # "it forwards the leader's request to every other replica to
        # ensure that all correct replicas will eventually receive
        # and apply the same command."
        for peer in self.system.followers:
            if peer != self.name:
                network.send(peer, poe, parent=span)
        network.send(self.system.client_name,
                     Reply(self.name, self._batch_id, self.counter),
                     parent=span)
        if span is not NULL_SPAN:
            span.end(status="ok")
        self.next()


# ---------------------------------------------------------------------------
# The client
# ---------------------------------------------------------------------------


class _Client(Client):
    """The client: increment batches pipelined up to a depth, each
    committed on f+1 identical replies, and quorum reads."""

    _reading = False
    _next_read_id = 0

    def write(self, batches: int, timeout_us: float,
              depth: int) -> SystemMetrics:
        self._batches = batches
        self._timeout_us = timeout_us
        self._depth = depth
        self._next_batch = 0
        self._sent_at: dict[int, float] = {}
        self._votes: dict[int, dict[int, set[str]]] = {}
        #: batch_id -> its ``bft.request`` root span: the apex of the
        #: cross-replica trace, opened at submission and closed at
        #: quorum commit (straggler replies land after the root ends
        #: and are excluded from the critical path by the gating rule).
        self._roots: dict[int, object] = {}
        return self.run(self.begin)

    def send_next(self) -> None:
        """Fill the pipeline, then wait *timeout_us* for a reply; end
        the run once every batch has committed."""
        system, sim = self.system, self.sim
        if self._next_batch == self._batches and not self._sent_at:
            return self.end()
        while self._next_batch < self._batches and len(self._sent_at) < self._depth:
            batch_id = self._next_batch
            self._sent_at[batch_id] = sim.now
            self._votes[batch_id] = {}
            root = NULL_SPAN
            if sim.telemetry is not None:
                root = span_begin(sim, "bft.request",
                                  batch=batch_id, system="bft")
            self._roots[batch_id] = root
            system.network.send(system.leader_name,
                                ClientRequest(batch_id, system.batch),
                                parent=root)
            self._next_batch += 1
        self.wait(sim.now + self._timeout_us)

    def received(self, reply, parent) -> None:
        """Count a reply toward its batch's quorum.  Every reply, wanted
        or not, restarts the idle deadline."""
        if self._reading:
            return super().received(reply, parent)
        if self.deadline is None:
            return  # no write in progress
        batch_id = reply.batch_id if isinstance(reply, Reply) else None
        if batch_id in self._sent_at:
            voters = self._votes[batch_id].setdefault(reply.output, set())
            voters.add(reply.sender)
            if len(voters) >= self.system.f + 1:
                latency = self.sim.now - self._sent_at.pop(batch_id)
                root = self._roots.pop(batch_id)
                if root is not NULL_SPAN:
                    root.end(status="committed")
                for _ in range(self.system.batch):
                    self.system.metrics.record(latency)
        self.send_next()

    def expired(self) -> None:
        if self._reading:
            return super().expired()
        self.system.aborted = True
        self.end()

    def end(self) -> None:
        for root in self._roots.values():
            root.end(status="uncommitted")
        super().end()

    def read(self, timeout_us: float) -> int:
        self._read_timeout_us = timeout_us
        self._reading = True
        try:
            return self.run(self._read)
        finally:
            self._reading = False

    def _read(self, _event) -> None:
        read_id = self._next_read_id
        self._next_read_id = read_id + 1
        request = ReadRequest(read_id)
        system = self.system
        for name in [system.leader_name] + system.followers:
            system.network.send(name, request)
        self.await_quorum(
            self.sim.now + self._read_timeout_us, system.f + 1,
            lambda reply: (isinstance(reply, Reply)
                           and reply.batch_id == -read_id - 1),
            self._read_done,
        )

    def _read_done(self, reply) -> None:
        if reply is None:
            self.finish(error=TimeoutError("no read quorum"))
        else:
            self.finish(reply.output)


# ---------------------------------------------------------------------------
# The system
# ---------------------------------------------------------------------------


class BftCounter:
    """N = 2f+1 replicated counter; one leader, 2f followers."""

    def __init__(
        self,
        provider_name: str = "tnic",
        f: int = 1,
        batch: int = 1,
        seed: int = 0,
        behaviours: dict[str, ByzantineBehaviour] | None = None,
        extra_replicas: int = 0,
    ) -> None:
        if f < 1:
            raise ValueError("f must be >= 1")
        if batch < 1:
            raise ValueError("batch must be >= 1")
        if extra_replicas < 0:
            raise ValueError("extra_replicas must be >= 0")
        self.sim = Simulator()
        self.network = EmulatedNetwork(self.sim)
        self.f = f
        self.batch = batch
        self.provider_name = provider_name
        # extra_replicas lets ablations run the classical 3f+1 budget
        # (extra_replicas=f) with unchanged quorum size f+1.
        names = [f"r{i}" for i in range(2 * f + 1 + extra_replicas)]
        self.leader_name = names[0]
        self.followers = names[1:]
        self.client_name = "client"
        self.providers, self.session_ids = provision(
            self.sim, provider_name, names, seed
        )
        behaviours = behaviours or {}
        self.replicas = {
            name: _Replica(name, self, self.providers[name],
                           behaviours.get(name))
            for name in names
        }
        self.client = _Client(self, self.client_name)
        self.metrics = SystemMetrics(sim=self.sim, system="bft")

    # ------------------------------------------------------------------
    # Client
    # ------------------------------------------------------------------
    def run_workload(
        self,
        batches: int,
        timeout_us: float = 1_000_000.0,
        pipeline_depth: int = 1,
    ) -> SystemMetrics:
        """Client issuing *batches* increment batches with up to
        *pipeline_depth* outstanding at a time.

        A run that fails to gather f+1 identical replies for every
        batch within *timeout_us* of idle waiting is marked aborted
        (``self.aborted``) — the observable outcome of a Byzantine
        leader beyond tolerance.
        """
        if pipeline_depth < 1:
            raise ValueError("pipeline_depth must be >= 1")
        self.aborted = False
        return self.client.write(batches, timeout_us, pipeline_depth)

    def read_counter(self, timeout_us: float = 100_000.0) -> int:
        """Read the replicated counter: broadcast, trust f+1 identical
        replies.  Raises TimeoutError when no quorum forms."""
        return self.client.read(timeout_us)

    def detected_faults(self) -> dict[str, list[str]]:
        return {
            name: list(replica.detected_faults)
            for name, replica in self.replicas.items()
            if replica.detected_faults
        }
