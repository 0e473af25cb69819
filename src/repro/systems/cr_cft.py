"""TEEs-CR: CFT chain replication hosted entirely inside TEEs (§8.3).

The CFT counterpart of :mod:`repro.systems.chain`: because the whole
protocol is shielded by the TEE, nodes trust each other's outputs —
no per-hop proof-of-execution, no chained verification, and the tail
alone replies to the client (trusted local reads).  Same number of
network round trips as the Byzantine version, roughly half the
attestation-kernel work, which is why the paper measures TEEs-CR at
about 2x the TNIC-based CR.
"""

from __future__ import annotations

from repro.sim.clock import Simulator
from repro.sim.record import Record, record
from repro.systems.chain import KvRequest, role_names
from repro.systems.common import Client, EmulatedNetwork, Station, SystemMetrics
from repro.systems.raft import TEE_IO_OVERHEAD_US


@record
class ChainCommand(Record):
    kind = "chain_command"
    request_id: int
    request: KvRequest


@record
class TailReply(Record):
    kind = "tail_reply"
    request_id: int
    output: str


class _CftChainNode(Station):
    """One chain node inside a TEE: a station whose every message is one
    stage of ``TEE_IO_OVERHEAD_US`` that ends in :meth:`on_message`."""

    def __init__(self, name: str, system: "TeeChainReplication",
                 successor: str | None) -> None:
        super().__init__(system.network, name)
        self.system = system
        self.successor = successor
        self.store: dict[str, str] = {}
        self.commit_index = 0

    def start(self, message, start: float) -> None:
        self.sim.call_at(start + TEE_IO_OVERHEAD_US, self.on_message,
                         message)

    def execute(self, request: KvRequest) -> str:
        if request.op == "put":
            self.store[request.key] = request.value
            return f"ok:{request.value}"
        return self.store.get(request.key, "<missing>")

    def on_message(self, message) -> None:
        if not isinstance(message, ChainCommand):
            return self.next()
        output = self.execute(message.request)
        self.commit_index += 1
        network = self.system.network
        if self.successor is not None:
            network.send(self.successor, message)
        else:
            # The tail is trusted under CFT: it alone replies.
            network.send(self.system.client_name,
                         TailReply(message.request_id, output))
        self.next()


class _Client(Client):
    """The closed-loop client: a request is done on the tail's reply."""

    def submit(self, requests: list[KvRequest]) -> SystemMetrics:
        self._requests = requests
        self._request_id = -1
        return self.run(self.begin)

    def send_next(self) -> None:
        self._request_id = request_id = self._request_id + 1
        if request_id == len(self._requests):
            return self.end()
        self.sent_at = self.sim.now
        self.system.network.send(
            "head", ChainCommand(request_id, self._requests[request_id]))

    def received(self, reply, parent) -> None:
        if (isinstance(reply, TailReply)
                and reply.request_id == self._request_id):
            self.replied(reply)


class TeeChainReplication:
    """f+1-node CFT chain inside TEEs; tail replies to the client."""

    def __init__(self, chain_length: int = 3) -> None:
        if chain_length < 2:
            raise ValueError("chain needs at least head and tail")
        self.sim = Simulator()
        self.network = EmulatedNetwork(self.sim)
        names = role_names(chain_length)
        self.names = names
        self.client_name = "client"
        self.nodes: dict[str, _CftChainNode] = {}
        for i, name in enumerate(names):
            successor = names[i + 1] if i + 1 < len(names) else None
            self.nodes[name] = _CftChainNode(name, self, successor)
        self.client = _Client(self, self.client_name)
        self.metrics = SystemMetrics(sim=self.sim, system="cr_cft")

    def run_workload(self, requests: list[KvRequest]) -> SystemMetrics:
        return self.client.submit(requests)

    def stores_consistent(self) -> bool:
        stores = [node.store for node in self.nodes.values()]
        return all(store == stores[0] for store in stores)
