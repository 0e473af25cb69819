"""Shared scaffold of the replicated systems (§7, §8.3).

The paper evaluates the systems on the Intel cluster over the DRCT-IO
stack, injecting busy-waits that emulate each attestation provider's
latency.  Every system here is built from the same four pieces:

* :func:`provision` — one attestation provider per node (device ids
  1..n in node order, the §8.3 30 µs ``lower_bound`` for AMD-sev) and
  one session per sender, installed on every provider so any node can
  check any other's attestations.
* :func:`authenticators` — a node's per-sender check table, built once
  at construction.
* :class:`EmulatedNetwork` — FIFO reliable channels with the DRCT-IO
  per-hop latency, carrying Python message objects between named
  nodes, each a :class:`Station`: every replica, and every client
  (:class:`Client`, PeerReview's source included).
* :class:`SystemMetrics` — commit latency and throughput in virtual
  time, filled by the system's client, whose run ``run_workload``
  hands back.

A client that trusts an output once enough replicas vote for it waits
with :meth:`Client.await_quorum`.

:class:`BroadcastAuthenticator` is the receiver side of the §6.1
equivocation-free multicast: the sender attests a message *once* and
unicasts the identical attested message; every receiver checks
transferable authentication and gap-free counters per sender with the
one continuity rule, :class:`~repro.api.multicast.ContinuityCheck`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from math import inf
from typing import TYPE_CHECKING, Any, Callable

from repro.api.multicast import ContinuityCheck, EquivocationDetected
from repro.core.attestation import AttestedMessage
from repro.crypto.hashing import sha256
from repro.sim.events import Event, Timeout
from repro.sim.instrument import count, emit, gauge_set, observe, span_begin
from repro.sim.latency import SYSTEM_NET_HOP_US
from repro.sim.record import Record, record
from repro.tee.base import AttestationProvider
from repro.tee.providers import make_provider

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.clock import Simulator

_PROCESSED = Event.PROCESSED


@record
class Envelope(Record):
    """A system message plus the ``system.net_hop`` span it travels under.

    The value of the hop timeout :meth:`EmulatedNetwork.send` files only
    with telemetry attached, so untraced runs (including the
    golden-trace scenarios) move the bare message objects they always
    did.  On arrival the receiver's :meth:`Station.received` gets
    ``message`` and ``span`` (None without a live trace parent): the hop
    span is the parent of the receiver's own, joining it to the
    sender's trace.
    """

    message: Any
    span: Any

    def arrived(self, _event: "Event") -> None:
        """Hop callback: the message reached its node."""
        self.span.end()


class Station:
    """A node that handles its messages one job at a time, in the order
    they were sent to it.

    A job is a chain of timed stages, each a scheduled call
    (``Simulator.call_at``) whose step is a protocol step that gets the
    value it waited for; the step that ends the job calls :meth:`next`.
    A subclass files a message's first stage in :meth:`start`, charged
    from the instant the job starts: ``max(arrive, now)``, where a
    message sent to an idle station starts on arrival, filed from the
    send itself, so a message's arrival costs no event.  With telemetry
    attached, :meth:`received` opens the job's spans at ``max(arrive,
    start)`` — on a hop timeout that runs only then — so span ids and
    instants are those of a receive.
    """

    def __init__(self, network: "EmulatedNetwork", name: str) -> None:
        self.name = name
        self.sim = network.sim
        #: Queued jobs: (message, arrive, traced hop or None).
        self._jobs: deque[tuple[Any, float, Any]] = deque()
        self._busy = False
        network._add(name, self)

    def start(self, message: Any, start: float) -> None:
        """File the first stage of *message*'s job, charged from the
        absolute instant *start*; a message the node ignores ends its
        job here with :meth:`next`."""
        raise NotImplementedError

    def received(self, message: Any, parent: Any) -> None:
        """Open the spans of the job in service under *parent*, the
        hop's span (telemetry attached only)."""

    def _submit(self, message: Any, arrive: float, hop: Any) -> None:
        """A message is in flight to this node, arriving at *arrive*;
        *hop* is its traced hop timeout, or None."""
        if self._busy:
            self._jobs.append((message, arrive, hop))
            return
        self._busy = True
        self.start(message, arrive)
        if hop is not None:
            self._traced(hop)

    def next(self) -> None:
        """End the job in service and start the next one, if any."""
        if not self._jobs:
            self._busy = False
            return
        message, arrive, hop = self._jobs.popleft()
        now = self.sim._now
        self.start(message, arrive if arrive > now else now)
        if hop is not None:
            self._traced(hop)

    def _traced(self, hop: "Event") -> None:
        """The job just started: open its spans now if its message has
        arrived, else on arrival, ahead of the hop span's end."""
        if hop._state == _PROCESSED:
            self._landed(hop)
        else:
            hop.callbacks.insert(0, self._landed)

    def _landed(self, hop: "Event") -> None:
        self.received(hop._value.message, hop._value.span)


class Client(Station):
    """A node whose steps answer replies: the client of a replicated
    system, and PeerReview's source.

    A reply is a job that ends as soon as it is filed, so a client is
    never busy and every reply costs one scheduler entry, filed from
    its send at its arrival instant: a call of its own, or with
    telemetry attached the hop's entry, where :meth:`received` runs
    ahead of the hop span's end.  :meth:`received` handles the reply.

    :meth:`run` files the client's first step now and runs the
    simulator until :meth:`finish` settles :attr:`done`; a workload run
    starts with :meth:`begin` and ends with :meth:`end`, and a closed
    loop sends its next request from :meth:`replied`.  :meth:`wait`
    waits until an absolute deadline, and :meth:`expired` runs if the
    deadline passes first.  The client keeps at most one deadline timer
    in flight, a call filed at its instant: a waiter
    that is answered leaves the timer behind, a later deadline reuses
    it, and a timer that fires early re-arms for the deadline still
    waited on, or lapses with no wait in progress.  Deadlines that never
    move backwards therefore cost one scheduled entry however many
    replies they outlive.
    """

    def __init__(self, system: Any, name: str) -> None:
        super().__init__(system.network, name)
        #: The replicated system: its ``network``, ``metrics`` and
        #: ``aborted`` flag.
        self.system = system
        #: Settled by :meth:`finish` with the outcome of the run.
        self.done: Event | None = None
        #: Deadline of the wait in progress, None when there is none.
        self.deadline: float | None = None
        #: Instant of the deadline timer in flight, ``inf`` when none is.
        self._timer_at = inf
        #: The quorum wait in progress: (size, wanted, then, votes).
        self._collect: tuple | None = None

    def run(self, first_step: Callable[[None], None]) -> Any:
        """File ``first_step(None)`` now and run the simulator until the
        run finishes; return its value, or raise its error."""
        sim = self.sim
        self.done = Event(sim)
        sim.call_at(sim._now, first_step, None)
        return sim.run(self.done)

    def finish(self, value: Any = None,
               error: BaseException | None = None) -> None:
        """End the run with *value*, or fail it with *error*."""
        self.deadline = None
        if error is not None:
            self.done.fail(error)
        else:
            self.done.succeed(value)

    def begin(self, _arg: None) -> None:
        """First step of a workload run: start the clock and send."""
        self.system.metrics.started_at = self.sim._now
        self.send_next()

    def send_next(self) -> None:
        """Send what the run sends next, or :meth:`end` it."""
        raise NotImplementedError

    def replied(self, reply: Any) -> None:
        """The request in flight (sent at ``sent_at``) is answered:
        record it and send the next; None aborts the run."""
        if reply is None:
            self.system.aborted = True
            return self.end()
        self.system.metrics.record(self.sim._now - self.sent_at)
        self.send_next()

    def end(self) -> None:
        """Last step of a workload run: stop the clock and finish with
        the system's metrics."""
        metrics = self.system.metrics
        metrics.finished_at = self.sim._now
        self.finish(metrics)

    def start(self, message: Any, start: float) -> None:
        """File the reply's arrival and end its job at once."""
        sim = self.sim
        if sim.telemetry is None:
            sim.call_at(start, self._arrived, message)
        self.next()

    def _arrived(self, message: Any) -> None:
        self.received(message, None)

    # ------------------------------------------------------------------
    # Waiting with a deadline
    # ------------------------------------------------------------------
    def wait(self, deadline: float) -> None:
        """Wait for replies until the absolute instant *deadline*;
        :meth:`expired` runs at once when it has already passed."""
        if deadline <= self.sim._now:
            self.deadline = None
            self.expired()
            return
        self.deadline = deadline
        if deadline < self._timer_at:
            self._arm(deadline)

    def _arm(self, when: float) -> None:
        self._timer_at = when
        self.sim.call_at(when, self._expire, when)

    def _expire(self, when: float) -> None:
        """The deadline timer filed for *when* fired: expire the wait in
        progress if it is due, else re-arm for its deadline."""
        if when != self._timer_at:
            return  # superseded by a timer armed for an earlier deadline
        self._timer_at = inf
        deadline = self.deadline
        if deadline is None:
            return
        if deadline <= self.sim._now:
            self.deadline = None
            self.expired()
        else:
            self._arm(deadline)

    def expired(self) -> None:
        """The deadline of the wait in progress passed: the quorum wait
        ends with None."""
        then = self._collect[2]
        self._collect = None
        then(None)

    # ------------------------------------------------------------------
    # Quorum
    # ------------------------------------------------------------------
    def await_quorum(self, deadline: float, size: int,
                     wanted: Callable[[Any], bool],
                     then: Callable[[Any], None]) -> None:
        """Count each reply that *wanted* accepts until *size* distinct
        senders agree on one ``output``, then call *then* with that
        reply, or with None at *deadline*."""
        self._collect = (size, wanted, then, {})
        self.wait(deadline)

    def received(self, message: Any, parent: Any) -> None:
        """Count a reply toward the quorum wait in progress, if any."""
        collect = self._collect
        if collect is None:
            return
        size, wanted, then, votes = collect
        if wanted(message):
            voters = votes.setdefault(message.output, set())
            voters.add(message.sender)
            if len(voters) >= size:
                self._collect = self.deadline = None
                then(message)
                return
        self.wait(self.deadline)


class EmulatedNetwork:
    """FIFO reliable message passing with per-hop latency between
    stations (every node: replicas and clients; A2M has no network)."""

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._nodes: dict[str, Station] = {}
        self.messages_sent = 0
        #: Isolated node -> its mode ("hold" or "drop").
        self._isolated: dict[str, str] = {}
        self._held: list[tuple[str, Any]] = []
        self.dropped_messages = 0

    def _add(self, name: str, node: Station) -> None:
        if name in self._nodes:
            raise ValueError(f"node {name!r} already registered")
        self._nodes[name] = node

    # ------------------------------------------------------------------
    # Partitions.  The transport below this layer is reliable ("TNIC
    # guarantees packet retransmission ... until their successful
    # reception"), so a partition *delays* traffic rather than losing
    # it: messages toward isolated nodes are held and flushed on heal.
    # ------------------------------------------------------------------
    def isolate(self, names: set[str], mode: str = "hold") -> None:
        """Cut the listed nodes off.

        ``mode="hold"`` (default) models a partition over a reliable
        substrate: inbound traffic is buffered and flushed on heal.
        ``mode="drop"`` models a crashed-and-restarted node whose
        in-flight traffic is lost — the case protocol-level repair
        (e.g. Raft log catch-up) must handle.  The mode is per node:
        isolating other nodes later leaves an isolated node's mode as
        it was.
        """
        if mode not in ("hold", "drop"):
            raise ValueError(f"unknown isolation mode {mode!r}")
        unknown = names - set(self._nodes)
        if unknown:
            raise KeyError(f"unknown nodes: {sorted(unknown)}")
        self._isolated.update(dict.fromkeys(names, mode))

    def heal(self) -> None:
        """Restore connectivity and send every held message."""
        self._isolated.clear()
        held, self._held = self._held, []
        for dst, message in held:
            self.send(dst, message)

    @property
    def held_messages(self) -> int:
        return len(self._held)

    def send(self, dst: str, message: Any, parent: Any = None) -> None:
        """Put *message* in flight to *dst*, arriving one hop from now:
        the station gets it bare, and with telemetry attached a hop
        timeout of its own opens the receive's spans.

        With a live trace *parent* span and telemetry attached, the hop
        itself becomes a ``system.net_hop`` span under *parent*, which
        the hop timeout ends.  A message toward a node isolated in
        "hold" mode is sent — counted and traced — when :meth:`heal`
        releases it, bare (a partition outlives any hop span); one in
        "drop" mode is sent and lost.
        """
        node = self._nodes.get(dst)
        if node is None:
            raise KeyError(f"unknown destination {dst!r}")
        sim = self.sim
        isolated = dst in self._isolated
        if isolated and self._isolated[dst] == "hold":
            self._held.append((dst, message))
            gauge_set(sim, "system.net_held", len(self._held))
            return
        self.messages_sent += 1
        telemetry = sim.telemetry
        if telemetry is not None:
            count(sim, "system.net_sent")
            emit(sim, "system.net_send", dst, kind=type(message).__name__)
        if isolated:
            self.dropped_messages += 1
            count(sim, "system.net_dropped")
            return
        hop = None
        if telemetry is not None:
            span = None
            if parent:
                span = span_begin(sim, "system.net_hop", parent=parent, dst=dst)
            envelope = Envelope(message, span)
            hop = Timeout(sim, SYSTEM_NET_HOP_US, envelope)
            if span is not None:
                hop.callbacks.append(envelope.arrived)
        node._submit(message, sim._now + SYSTEM_NET_HOP_US, hop)


class BroadcastAuthenticator(ContinuityCheck):
    """Receiver-side state for equivocation-free multicast.

    One instance per (receiver, sender) pair: the sender's attestations
    are checked by the receiver's provider (transferable
    authentication) and judged by the §6.1 continuity rule against the
    sender's *device_id*.
    """

    def __init__(self, provider: AttestationProvider, session_id: int,
                 device_id: int) -> None:
        super().__init__(device_id)
        self.provider = provider
        self.session_id = session_id

    def verify(self, message: AttestedMessage,
               step: Callable[[Any, EquivocationDetected | None], None],
               start: float | None = None) -> None:
        """Check *message*, charged from *start* (an absolute instant,
        default now): ``step(payload, None)``, or ``step(None,
        violation)``.  The provider takes the MAC verdict now and files
        :meth:`_settle`, which judges the counters when the check fires."""
        self.provider.check_transferable(
            self.session_id, message, partial(self._settle, message, step),
            start)

    def _settle(self, message: AttestedMessage, step: Callable[..., None],
                mac_valid: bool) -> None:
        """The check fired: hand *step* the payload, or the violation
        :meth:`admit` finds (judged against the counters seen by this
        instant)."""
        violation = self.admit(mac_valid, message)
        if violation is not None:
            return step(None, violation)
        sim = self.provider.sim
        if sim.telemetry is not None:
            emit(sim, "system.auth_ok",
                 f"session={self.session_id} cnt={message.counter}")
        step(message.payload, None)


@dataclass
class SystemMetrics:
    """Throughput/latency accounting over virtual time.

    When constructed with a simulator and a system label, every
    recorded commit also lands in the telemetry hub (histogram
    ``system.commit_us`` and counter ``system.committed``, labelled by
    system) — a no-op unless ``Telemetry.attach(sim)`` was called.
    """

    committed: int = 0
    started_at: float = 0.0
    finished_at: float = 0.0
    latencies_us: list[float] = field(default_factory=list)
    sim: Any = None
    system: str = ""

    def record(self, latency_us: float) -> None:
        self.committed += 1
        self.latencies_us.append(latency_us)
        sim = self.sim
        if sim is not None and sim.telemetry is not None:
            observe(sim, "system.commit_us", latency_us, system=self.system)
            count(sim, "system.committed", system=self.system)

    @property
    def elapsed_us(self) -> float:
        return self.finished_at - self.started_at

    @property
    def throughput_ops(self) -> float:
        """Committed operations per second of virtual time."""
        if self.elapsed_us <= 0:
            return 0.0
        return self.committed / (self.elapsed_us / 1e6)

    @property
    def mean_latency_us(self) -> float:
        if not self.latencies_us:
            return 0.0
        return sum(self.latencies_us) / len(self.latencies_us)

    def percentile_latency_us(self, p: float) -> float:
        if not self.latencies_us:
            return 0.0
        ordered = sorted(self.latencies_us)
        index = min(int(len(ordered) * p), len(ordered) - 1)
        return ordered[index]

    def to_dict(self) -> dict:
        """Canonical deterministic export (the BENCH-artifact view).

        Only virtual-time numbers — never the simulator handle this
        object keeps for telemetry dispatch.
        """
        return {
            "committed": self.committed,
            "elapsed_us": round(self.elapsed_us, 6),
            "throughput_ops": round(self.throughput_ops, 6),
            "mean_latency_us": round(self.mean_latency_us, 6),
            "p50_latency_us": round(self.percentile_latency_us(0.50), 6),
            "p99_latency_us": round(self.percentile_latency_us(0.99), 6),
        }


def provision(
    sim: "Simulator",
    provider_name: str,
    names: list[str],
    seed: int,
    session_keys: dict[Any, bytes] | None = None,
) -> tuple[dict[str, AttestationProvider], dict[Any, int]]:
    """One provider per node and every session installed on all of them.

    Node ``names[i]`` gets device id ``i + 1``.  *session_keys* maps a
    session label to its key, numbered 1.. in order; the default gives
    every node a broadcast session keyed to its name, labelled by the
    name in sorted order.  Every provider installs every session key so
    any node can verify any other's attestations (transferable
    authentication requires shared session keys).  Returns
    ``(providers, {label: session_id})``.
    """
    # §8.3 runs AMD-sev at its 30 µs lower bound.
    kwargs = {"lower_bound": True} if provider_name == "amd-sev" else {}
    providers = {
        name: make_provider(provider_name, sim, i + 1, seed=seed, **kwargs)
        for i, name in enumerate(names)
    }
    if session_keys is None:
        session_keys = {name: sha256(b"system-key", name)
                        for name in sorted(names)}
    session_ids = {}
    for session_id, (label, key) in enumerate(session_keys.items(), 1):
        session_ids[label] = session_id
        for provider in providers.values():
            provider.install_session(session_id, key)
    return providers, session_ids


def authenticators(
    provider: AttestationProvider,
    session_ids: dict[Any, int],
    providers: dict[str, AttestationProvider],
) -> dict[Any, BroadcastAuthenticator]:
    """A node's per-sender check table: one authenticator per session,
    bound to the device of the node that owns it.  A session label is
    that node's name, or a tuple that starts with it."""
    return {
        label: BroadcastAuthenticator(
            provider, session_id,
            providers[label[0] if type(label) is tuple else label].device_id,
        )
        for label, session_id in session_ids.items()
    }
