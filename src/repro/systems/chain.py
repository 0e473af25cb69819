"""Byzantine Chain Replication over TNIC (§7, Appendix C.4, Algorithm 4).

The replication layer of a key-value store: head → middle → tail.  The
head orders and executes each client request and creates an attested
proof-of-execution; every subsequent node verifies *all* previous
nodes' PoEs (the chained message
``<<req, out_head>_σ0, out_mid>_σ1, ..., out_tail>_σN``), executes the
request itself, appends its own attested output and forwards.  Unlike
CFT chain replication, tail-local reads cannot be trusted, so every
operation traverses the whole chain and the client waits for identical
replies from all nodes — yet the replication factor stays f+1.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.attestation import AttestedMessage
from repro.sim.clock import Simulator
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
# Requests: the paper's CR experiment uses 60B context + 4B op type +
# 32B signature per client request.
# ---------------------------------------------------------------------------


def role_names(length: int) -> list[str]:
    """Node names of a *length*-node chain in order: head, mid0.., tail.

    Sessions are numbered from these names, so the spelling and order
    are part of every chain's identifiers.
    """
    return ["head"] + [f"mid{i}" for i in range(length - 2)] + ["tail"]


@record
class KvRequest(Record):
    op: str  # "put" | "get"
    key: str
    value: str = ""

    def encode(self) -> str:
        return f"{self.op}:{self.key}:{self.value}"


@record
class ChainMessage(Record):
    """The chained PoE message travelling head → tail."""

    request_id: int
    request: KvRequest
    #: (node_name, attested(batch, output, commit_index)) per hop so far.
    poes: tuple[tuple[str, AttestedMessage], ...]


@record
class ChainReply(Record):
    sender: str
    request_id: int
    output: str


@record
class ChainSubmit(Record):
    """A client write entering the chain at the head, tagged with the
    client's request id (decoupled from the head's commit index)."""

    request_id: int
    request: "KvRequest"


@record
class QuorumRead(Record):
    """A read broadcast directly to replicas (Appendix C.4 alternative:
    'clients can consult the majority and broadcast the request to f+1
    replicas, including the tail')."""

    request_id: int
    request: "KvRequest"


def _encode_output(request_id: int, output: str, commit_index: int) -> bytes:
    return f"{request_id}|{output}|{commit_index}".encode()


def _decode_output(payload: bytes) -> tuple[int, str, int]:
    request_id, output, commit = payload.decode().split("|", 2)[:3]
    return int(request_id), output, int(commit)


@dataclass
class ChainBehaviour:
    """Byzantine faults a chain node can exhibit."""

    corrupt_output: bool = False
    drop_forward: bool = False


class _ChainNode(Station):
    """One replica in the chain: a station whose stages (PoE checks,
    the attest) end in the steps of Algorithm 4."""

    def __init__(
        self,
        name: str,
        system: "ChainReplication",
        provider: AttestationProvider,
        successor: str | None,
        behaviour: ChainBehaviour | None = None,
    ) -> None:
        super().__init__(system.network, name)
        self.system = system
        self.provider = provider
        self.successor = successor
        self.behaviour = behaviour or ChainBehaviour()
        self.store: dict[str, str] = {}
        self.commit_index = 0
        self.detected_faults: list[str] = []
        self.authenticators = authenticators(provider, system.session_ids,
                                             system.providers)
        #: The nodes whose PoEs a chained message must carry, in order.
        self.predecessors = tuple(system.names[:system.names.index(name)])
        #: The job in service: its message, the PoEs checked so far and
        #: the output to reply with.
        self._message = None
        self._checked = 0
        self._output = ""

    def execute(self, request: KvRequest) -> str:
        """Deterministic KV application."""
        output = self._expected_output(request)
        if request.op == "put":
            self.store[request.key] = request.value
        return output

    def start(self, message, start: float) -> None:
        """Algorithm 4's dispatch: the head orders a client's request
        (head_operation); a later node validates the chained message
        from its predecessor (middle_tail_operation).  Each node ignores
        the message kinds its role never receives."""
        self._message = message
        if isinstance(message, QuorumRead):
            self._answer_quorum_read(message, start)
        elif not self.predecessors and isinstance(message, ChainSubmit):
            self._execute(start)
        elif self.predecessors and isinstance(message, ChainMessage):
            self._validate(None, None, start)
        else:
            self.next()

    def _answer_quorum_read(self, message: "QuorumRead", start: float) -> None:
        """Serve a direct read: execute locally, reply to the client.

        Replies to clients are signed with the device's client key pair
        C_priv (Appendix C.1) — *not* with the inter-replica session —
        so serving a read never consumes a session counter the chain
        verifiers would then miss.  One kernel invocation is charged.
        """
        self._output = output = self.execute(message.request)
        signing = self.provider.attest_latency_us(
            len(_encode_output(message.request_id, output, self.commit_index)))
        self.sim.call_at(start + signing, self._reply, None)

    def _reply(self, _signed: None = None) -> None:
        """Reply to the client, the last step of head_operation,
        middle_tail_operation and a quorum read."""
        self.system.network.send(
            self.system.client_name,
            ChainReply(self.name, self._message.request_id, self._output),
        )
        self.next()

    def _execute(self, start: float | None = None) -> None:
        """head_operation / middle_tail_operation: execute the request
        and attest its output."""
        message = self._message
        output = self.execute(message.request)
        self.commit_index += 1
        if self.behaviour.corrupt_output:
            output = "corrupted"
        self._output = output
        self.provider.attest(
            self.system.session_ids[self.name],
            _encode_output(message.request_id, output, self.commit_index),
            self._forward, start)

    def _forward(self, attested: AttestedMessage) -> None:
        """head_operation / middle_tail_operation, once the output is
        attested: forward the chain with this node's PoE appended."""
        message = self._message
        if self.successor and not self.behaviour.drop_forward:
            poes = message.poes if self.predecessors else ()
            self.system.network.send(self.successor, ChainMessage(
                message.request_id, message.request,
                poes + ((self.name, attested),),
            ))
        self._reply()

    def _validate(self, payload: bytes | None, violation,
                  start: float | None = None) -> None:
        """validate() (Algorithm 4, L15-26), a step per PoE.  As the job
        starts (no check yet: *payload* and *violation* None): one PoE
        per predecessor, in chain order, else the predecessor that handed
        the message on is blamed.  Then each PoE in turn: its attestation
        and counter, the claimed output against this node's own
        deterministic execution, and the expected commit index.  After
        the last valid PoE the node executes."""
        message = self._message
        fault = None
        if payload is None and violation is None:
            senders = [sender for sender, _ in message.poes]
            self._checked = 0
            if tuple(senders) != self.predecessors:
                fault = (f"{self.predecessors[-1]}: PoEs from {senders} != "
                         f"predecessors {list(self.predecessors)}")
        elif violation is not None:
            fault = f"{message.poes[self._checked][0]}: {violation}"
        else:
            sender = message.poes[self._checked][0]
            request_id, output, commit = _decode_output(payload)
            expected_output = self._expected_output(message.request)
            if request_id != message.request_id:
                fault = f"{sender}: PoE for wrong request {request_id}"
            elif output != expected_output:
                fault = (f"{sender}: output {output!r} != expected "
                         f"{expected_output!r}")
            elif commit != self.commit_index + 1:
                fault = (f"{sender}: commit index {commit} != expected "
                         f"{self.commit_index + 1}")
            self._checked += 1
        if fault is not None:
            self.detected_faults.append(fault)
            return self.next()
        if self._checked == len(message.poes):
            return self._execute()
        sender, attested = message.poes[self._checked]
        self.authenticators[sender].verify(attested, self._validate, start)

    def _expected_output(self, request: KvRequest) -> str:
        """Simulate the request on the local (pre-execution) state."""
        if request.op == "put":
            return f"ok:{request.value}"
        if request.op == "get":
            return self.store.get(request.key, "<missing>")
        raise ValueError(f"unknown op {request.op!r}")


class _Client(Client):
    """The closed-loop client: a request is committed once every chain
    node has replied with the same output."""

    def submit(self, requests: list[KvRequest], timeout_us: float,
               read_mode: str) -> SystemMetrics:
        self._requests = requests
        self._timeout_us = timeout_us
        self._read_mode = read_mode
        self._request_id = -1
        return self.run(self.begin)

    def send_next(self) -> None:
        system = self.system
        self._request_id = request_id = self._request_id + 1
        if request_id == len(self._requests):
            return self.end()
        request = self._requests[request_id]
        self.sent_at = self.sim.now
        if self._read_mode == "quorum" and request.op == "get":
            probe = QuorumRead(request_id, request)
            for name in system.names:
                system.network.send(name, probe)
        else:
            system.network.send("head", ChainSubmit(request_id, request))
        self.await_quorum(
            self.sent_at + self._timeout_us, len(system.names),
            lambda reply: (isinstance(reply, ChainReply)
                           and reply.request_id == request_id),
            self.replied,
        )


class ChainReplication:
    """The chained system: head, f-1 middles, tail (N = f+1 nodes)."""

    def __init__(
        self,
        provider_name: str = "tnic",
        chain_length: int = 3,
        seed: int = 0,
        behaviours: dict[str, ChainBehaviour] | None = None,
    ) -> None:
        if chain_length < 2:
            raise ValueError("chain needs at least head and tail")
        self.sim = Simulator()
        self.network = EmulatedNetwork(self.sim)
        self.provider_name = provider_name
        names = role_names(chain_length)
        self.names = names
        self.client_name = "client"
        self.providers, self.session_ids = provision(
            self.sim, provider_name, names, seed
        )
        behaviours = behaviours or {}
        self.nodes: dict[str, _ChainNode] = {}
        for i, name in enumerate(names):
            successor = names[i + 1] if i + 1 < len(names) else None
            self.nodes[name] = _ChainNode(
                name, self, self.providers[name], successor,
                behaviours.get(name),
            )
        self.client = _Client(self, self.client_name)
        self.metrics = SystemMetrics(sim=self.sim, system="chain")
        self.aborted = False

    # ------------------------------------------------------------------
    def run_workload(
        self,
        requests: list[KvRequest],
        timeout_us: float = 1_000_000.0,
        read_mode: str = "chain",
    ) -> SystemMetrics:
        """Closed-loop client: each request must gather identical
        replies from every chain node before the next is issued.

        ``read_mode="quorum"`` sends get requests directly to all
        replicas in parallel (Appendix C.4's alternative), trading the
        chain traversal for one broadcast round.
        """
        if read_mode not in ("chain", "quorum"):
            raise ValueError(f"unknown read_mode {read_mode!r}")
        return self.client.submit(requests, timeout_us, read_mode)

    def detected_faults(self) -> dict[str, list[str]]:
        return {
            name: list(node.detected_faults)
            for name, node in self.nodes.items()
            if node.detected_faults
        }
