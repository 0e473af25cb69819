"""The seven benchmark workloads: inputs, one repetition, oracle, counters.

Every workload is driven through the program's public entry points
only.  A workload object owns four steps, in the order ``run.py``
calls them for one repetition:

``inputs(seed, ops)``   inputs generated from the seed (once per process)
``construct(seed, inputs)``  a fresh system (untimed)
``run(system, inputs)``      the timed part; returns the raw outcome
``report(system, inputs, outcome)``  oracle + virtual results + counters

``report`` returns a :class:`Report`: how many operations committed *and*
passed the oracle, the deterministic virtual-time results (``model.*``)
and the exact per-layer counters, all per seed and independent of the
host clock.

API and crypto functions are called through their modules
(``ops.auth_send``, not a ``from`` import) so the traced pass measures
the same call sites it patches.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro import crypto
from repro.api import Cluster, ops
from repro.bench.workload import kv_workload
from repro.net.fabric import NetworkFault
from repro.roce.transport import TransportError
from repro.systems.bft import BftCounter
from repro.systems.chain import ChainReplication
from repro.systems.common import SystemMetrics
from repro.systems.peer_review import PeerReviewSystem
from repro.systems.raft import TeeRaft


@dataclass
class Report:
    """What one repetition produced, apart from its host time."""

    attempted: int
    #: Operations that committed and passed the oracle.
    ok: int
    #: Oracle violations, in words; empty on a good run.
    errors: list[str]
    #: ``model.*`` — virtual-time results, exact per seed.
    model: dict[str, float]
    #: Exact per-layer counters for the whole repetition (not yet per op).
    counts: dict[str, float] = field(default_factory=dict)


def _model(metrics: SystemMetrics) -> dict[str, float]:
    """The ``model.*`` metrics out of the program's own accounting."""
    virtual = metrics.to_dict()
    return {
        "model.virt_ops_per_s": virtual["throughput_ops"],
        "model.virt_p50_us": virtual["p50_latency_us"],
        "model.virt_p99_us": virtual["p99_latency_us"],
        "model.virt_elapsed_us": virtual["elapsed_us"],
    }


class SystemWorkload:
    """One of the replicated systems under its own closed-loop client."""

    #: Requests outstanding at the client (the system's own parameter).
    window = 1

    def __init__(self, name: str, ops_per_rep: int, why: str) -> None:
        self.name = name
        self.ops_per_rep = ops_per_rep
        self.why = why

    def inputs(self, seed: int, ops_count: int) -> Any:
        return ops_count

    def construct(self, seed: int, inputs: Any) -> Any:
        raise NotImplementedError

    def run(self, system: Any, inputs: Any) -> Any:
        raise NotImplementedError

    def oracle(self, system: Any, inputs: Any) -> list[str]:
        raise NotImplementedError

    def attempted(self, inputs: Any) -> int:
        return inputs

    def report(self, system: Any, inputs: Any, metrics: Any) -> Report:
        attempted = self.attempted(inputs)
        # Counters first: the bft oracle issues one more (read) request.
        kernels = [provider.kernel  # TeeRaft has no attestation providers
                   for provider in getattr(system, "providers", {}).values()]
        counts = {
            "systems.msgs": system.network.messages_sent,
            "core.attests": sum(k.attest_count for k in kernels),
            "core.verifies": sum(k.verify_count for k in kernels),
            "core.rejections": sum(k.reject_count for k in kernels),
        }
        errors = self.oracle(system, inputs)
        if metrics.committed != attempted:
            errors.append(f"committed {metrics.committed} of {attempted}")
        return Report(
            attempted=attempted,
            ok=0 if errors else attempted,
            errors=errors,
            model=_model(metrics),
            counts=counts,
        )


class BftCounterWorkload(SystemWorkload):
    window = 4

    def construct(self, seed, inputs):
        return BftCounter("tnic", f=1, batch=1, seed=seed)

    def run(self, system, inputs):
        return system.run_workload(inputs, pipeline_depth=self.window)

    def oracle(self, system, inputs):
        errors = []
        if system.aborted:
            errors.append("run aborted")
        faults = system.detected_faults()
        if faults:
            errors.append(f"faults detected: {faults}")
        counter = system.read_counter()
        if counter != inputs:
            errors.append(f"replicated counter reads {counter}, want {inputs}")
        return errors


class ChainKvWorkload(SystemWorkload):
    read_fraction = 0.5

    def inputs(self, seed, ops_count):
        return kv_workload(ops_count, read_fraction=self.read_fraction, seed=seed)

    def attempted(self, inputs):
        return len(inputs)

    def construct(self, seed, inputs):
        return ChainReplication("tnic", seed=seed)

    def run(self, system, inputs):
        return system.run_workload(inputs)

    def oracle(self, system, inputs):
        errors = []
        if system.aborted:
            errors.append("run aborted")
        faults = system.detected_faults()
        if faults:
            errors.append(f"faults detected: {faults}")
        replay = {r.key: r.value for r in inputs if r.op == "put"}
        for name, node in system.nodes.items():
            if node.store != replay:
                errors.append(f"store of {name} differs from the put replay")
        return errors


class RaftWorkload(SystemWorkload):
    def construct(self, seed, inputs):
        return TeeRaft(nodes=3)

    def run(self, system, inputs):
        return system.run_workload(inputs)

    def oracle(self, system, inputs):
        return [] if system.logs_consistent() else ["logs diverge"]


class PeerReviewWorkload(SystemWorkload):
    def construct(self, seed, inputs):
        return PeerReviewSystem("tnic", audit=True, seed=seed)

    def run(self, system, inputs):
        return system.run_workload(inputs)

    def oracle(self, system, inputs):
        faults = system.detected_faults()
        return [f"faults detected: {faults}"] if faults else []


class SendWorkload:
    """``auth_send`` a → b through the full TNIC datapath.

    Closed loop with ``window`` messages outstanding: the driver waits
    for the oldest completion (one ``cluster.run(completion)`` each)
    before it posts the next message, then drains the simulator and
    ``recv``s everything at the receiver.
    """

    window = 16

    def __init__(
        self,
        name: str,
        ops_per_rep: int,
        why: str,
        payload_bytes: int,
        fault: dict[str, float] | None = None,
    ) -> None:
        self.name = name
        self.ops_per_rep = ops_per_rep
        self.why = why
        self.payload_bytes = payload_bytes
        self.fault = fault

    def inputs(self, seed: int, ops_count: int) -> list[bytes]:
        rng = random.Random(f"{self.name}/{seed}")
        # The sequence number makes every payload, hence every MAC, unique.
        return [
            index.to_bytes(8, "big") + rng.randbytes(self.payload_bytes - 8)
            for index in range(ops_count)
        ]

    def construct(self, seed: int, inputs: list[bytes]):
        fault = NetworkFault(**self.fault) if self.fault else None
        cluster = Cluster(["a", "b"], fault=fault, seed=seed)
        conn_a, conn_b = cluster.connect("a", "b")
        return cluster, conn_a, conn_b

    def run(self, system, inputs: list[bytes]):
        cluster, conn_a, conn_b = system
        sim = cluster.sim
        window = self.window
        pending: deque = deque()
        latencies: list[float] = []
        failures: list[str] = []

        def wait_oldest() -> None:
            sent_at, completion = pending.popleft()
            try:
                cluster.run(completion)
            except TransportError as exc:
                failures.append(str(exc))
            else:
                latencies.append(sim.now - sent_at)

        for payload in inputs:
            if len(pending) == window:
                wait_oldest()
            pending.append((sim.now, ops.auth_send(conn_a, payload)))
        while pending:
            wait_oldest()
        elapsed_us = sim.now
        cluster.run()
        received = []
        while True:
            item = ops.recv(conn_b)
            if item is None:
                break
            received.append(item)
        return latencies, failures, received, elapsed_us

    def report(self, system, inputs: list[bytes], outcome) -> Report:
        cluster, _conn_a, _conn_b = system
        latencies, failures, received, elapsed_us = outcome
        attempted = len(inputs)
        errors = list(failures)
        if len(received) != attempted:
            errors.append(f"received {len(received)} of {attempted}")
        elif [item["payload"] for item in received] != inputs:
            errors.append("payloads differ from the sent sequence")
        counters = [item["message"].counter for item in received]
        if counters != list(range(len(received))):
            errors.append("attested counters are not gap-free")
        stats = [cluster[name].device.stats() for name in ("a", "b")]
        rejections = sum(s.rejections for s in stats)
        retransmissions = sum(s.retransmissions for s in stats)
        if rejections:
            errors.append(f"{rejections} attestation rejections")
        if self.fault and not retransmissions:
            errors.append("fault run saw no retransmission")
        link = cluster.fabric.stats
        return Report(
            attempted=attempted,
            ok=0 if errors else attempted,
            errors=errors,
            model=_model(SystemMetrics(
                committed=len(latencies), finished_at=elapsed_us,
                latencies_us=latencies)),
            counts={
                "core.attests": sum(s.attestations for s in stats),
                "core.verifies": sum(s.verifications for s in stats),
                "core.rejections": rejections,
                "core.dma_bytes": sum(s.dma_bytes for s in stats),
                "roce.packets": sum(s.tx_packets for s in stats),
                "roce.retransmissions": retransmissions,
                "roce.duplicates_dropped": sum(s.duplicates_dropped for s in stats),
                "net.delivered": link.delivered,
                "net.dropped": link.dropped,
                "net.wire_bytes": sum(s.tx_bytes for s in stats),
            },
        )


def sim_of(system: Any):
    """The simulator of a constructed system (either family)."""
    return system[0].sim if isinstance(system, tuple) else system.sim


WORKLOADS = [
    BftCounterWorkload(
        "bft_counter", 3000,
        "paper's headline system (Fig. 10): sim, systems and crypto all carry weight; MAC working set fits the verification cache",
    ),
    ChainKvWorkload(
        "chain_kv", 4000,
        "50% get / 50% put on Zipfian keys through a 3-node chain; 12000 MAC checks per rep overflow the 4096-entry verification cache",
    ),
    RaftWorkload(
        "raft_cft", 12000,
        "bypass control (Recipe's CFT case): no crypto/core/tee calls, scheduler and protocol code only",
    ),
    PeerReviewWorkload(
        "peer_review_audit", 400,
        "crypto- and protocol-bound: witness re-verifies the whole sha256 log chain per chunk (quadratic); sim share is smallest here",
    ),
    SendWorkload(
        "send_small", 4000,
        "full TNIC datapath at 64 B (Fig. 9 small end): per-message fixed cost in api/stack/core/roce, many short sim.run(event) calls",
        payload_bytes=64,
    ),
    SendWorkload(
        "send_large", 1500,
        "same datapath at 16 KiB (Fig. 8/9 large end): segmentation, zero-copy bodies, reassembly, large digests; per-packet and per-byte cost",
        payload_bytes=16 * 1024,
    ),
    SendWorkload(
        "send_lossy", 4000,
        "1 KiB over 2% drop, 1% duplicate, 2% reorder: retransmission and out-of-order paths under the exactly-once in-order oracle (the fault run)",
        payload_bytes=1024,
        fault={"drop_probability": 0.02, "duplicate_probability": 0.01,
               "reorder_probability": 0.02},
    ),
]

BY_NAME = {workload.name: workload for workload in WORKLOADS}
