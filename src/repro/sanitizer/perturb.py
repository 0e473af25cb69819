"""Schedule-perturbation harness: find schedule dependence by running.

This harness is the one check of schedule independence: it *changes*
the schedule and compares outcomes.  FIFO order among same-timestamp
events is a kernel policy, not a semantic guarantee — the paper's
CFT-to-BFT transformation (§6, Listing 1) requires replica state
machines to be deterministic functions of their ordered inputs, so
their *final state* must not depend on how the kernel breaks ties.
Each tier-1 protocol scenario (BFT counter, chain replication, A2M,
view-change BFT, PeerReview) therefore runs once under exact FIFO and N
more times under seeded tie shuffles
(:meth:`~repro.sim.clock.Simulator.perturb_ties`); the canonical digest
of final replica state must be identical every time.
A divergent digest is a found schedule dependence, with the offending
seed as the reproducer.

Digests cover semantic replica state (counters, stores, commit indexes,
log entries, detected faults) and deliberately exclude latency metrics:
timing legitimately varies with tie order; outcomes must not.

The shuffle also reorders two replies that one
:class:`~repro.systems.common.EmulatedNetwork` channel delivers to a
client at the same instant: each is its own arrival stage of the same
latency, so a client's channel is FIFO only under the default tie
order.  A replica (and PeerReview's source) serves its messages in
send order as a :class:`~repro.systems.common.Station`, so its
channels stay FIFO under every shuffle.

Everything is derived from one root seed, so a report is reproducible
byte-for-byte from its command line.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.sim import Simulator
from repro.systems.a2m import A2M
from repro.systems.bft import BftCounter
from repro.systems.bft_viewchange import ViewChangeBftCounter
from repro.systems.chain import ChainReplication
from repro.systems.peer_review import PeerReviewBehaviour, PeerReviewSystem
from repro.tee import make_provider

DEFAULT_SEEDS = 8


def derive_seed(root_seed: int, scenario: str, index: int) -> int:
    """Stable per-run perturbation seed from the root seed."""
    digest = hashlib.sha256(f"{root_seed}/{scenario}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _digest(payload: object) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# ----------------------------------------------------------------------
# Scenarios — each returns the digest of its final replica state
# ----------------------------------------------------------------------

def bft_scenario(perturb_seed: int | None) -> str:
    """BFT counter, honest replicas, pipelined client (same-time sends)."""
    system = BftCounter("tnic", f=1, batch=2, seed=3)
    if perturb_seed is not None:
        system.sim.perturb_ties(perturb_seed)
    system.run_workload(4, pipeline_depth=3)
    state = {
        "aborted": system.aborted,
        "replicas": {
            name: {
                "counter": replica.counter,
                "applied": sorted(replica.applied_batches),
                "simulated": sorted(replica.simulated.items()),
                "faults": sorted(replica.detected_faults),
            }
            for name, replica in sorted(system.replicas.items())
        },
    }
    return _digest(state)


def chain_scenario(perturb_seed: int | None) -> str:
    """Chain replication with quorum reads (one broadcast per get)."""
    from repro.bench.workload import kv_workload

    system = ChainReplication("tnic", chain_length=3, seed=5)
    if perturb_seed is not None:
        system.sim.perturb_ties(perturb_seed)
    requests = kv_workload(10, read_fraction=0.5, value_bytes=60, seed=7)
    system.run_workload(requests, read_mode="quorum")
    state = {
        "aborted": system.aborted,
        "nodes": {
            name: {
                "store": sorted(node.store.items()),
                "commit_index": node.commit_index,
                "faults": sorted(node.detected_faults),
            }
            for name, node in sorted(system.nodes.items())
        },
    }
    return _digest(state)


def a2m_scenario(perturb_seed: int | None) -> str:
    """Two concurrent A2M writers (own provider each) on one simulator."""
    sim = Simulator()
    services: dict[str, A2M] = {}
    for index, name in enumerate(("alice", "bob")):
        provider = make_provider("tnic", sim, index + 1, seed=11)
        provider.install_session(
            1, hashlib.sha256(f"a2m-key/{name}".encode()).digest()
        )
        services[name] = A2M(provider, 1)
    if perturb_seed is not None:
        sim.perturb_ties(perturb_seed)
    outcomes: dict[str, dict] = {}

    def writer(name: str, a2m: A2M):
        appended = []
        for i in range(6):
            entry = yield a2m.append("log", f"{name}-{i}".encode())
            appended.append(entry.sequence)
        yield a2m.truncate("log", 2, f"nonce-{name}".encode())
        bounds = yield a2m.reconstruct_bounds("log")
        head, tail = a2m.bounds("log")
        outcomes[name] = {
            "appended": appended,
            "reconstructed": list(bounds),
            "verified": a2m.verify_range("log", head, tail),
        }

    for name, a2m in services.items():
        sim.process(writer(name, a2m))
    sim.run()
    state = {
        name: {
            "outcome": outcomes[name],
            "bounds": list(services[name].bounds("log")),
            "entries": [
                [
                    sequence,
                    entry.context.hex(),
                    entry.cumulative_digest.hex(),
                    entry.alpha.counter,
                ]
                for sequence, entry in sorted(
                    services[name]._logs["log"].entries.items()
                )
            ],
        }
        for name in sorted(services)
    }
    return _digest(state)


def view_change_scenario(perturb_seed: int | None) -> str:
    """View-change BFT with a silent leader: watchdogs that race the
    PoEs in flight drive the failover."""
    system = ViewChangeBftCounter("sgx", seed=1, silent_replicas={"r0"},
                                  watchdog_us=60.0)
    if perturb_seed is not None:
        system.sim.perturb_ties(perturb_seed)
    system.run_workload(6)
    return _digest({
        "aborted": system.aborted,
        "replicas": {
            name: [replica.view, replica.counter, sorted(replica.applied),
                   sorted(replica.pending), sorted(replica.detected_faults)]
            for name, replica in sorted(system.replicas.items())
        },
    })


def peer_review_scenario(perturb_seed: int | None) -> str:
    """PeerReview with a deviating child and every log audited."""
    system = PeerReviewSystem(
        "tnic", seed=3, audit_children=True,
        behaviour=PeerReviewBehaviour(wrong_execution=True))
    if perturb_seed is not None:
        system.sim.perturb_ties(perturb_seed)
    system.run_workload(6)
    nodes = [system.source, *system.child_nodes.values()]
    return _digest({
        "faults": system.detected_faults(),
        "logs": {node.name: [record.authenticator.hex()
                             for record in node.log.records]
                 for node in nodes},
    })


SCENARIOS = {
    "bft": bft_scenario,
    "chain": chain_scenario,
    "a2m": a2m_scenario,
    "view_change": view_change_scenario,
    "peer_review": peer_review_scenario,
}


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------

@dataclass
class ScenarioResult:
    """One scenario's reference digest and its perturbed runs."""

    name: str
    reference: str
    runs: list[tuple[int, str]] = field(default_factory=list)

    @property
    def divergent_seeds(self) -> list[int]:
        return [seed for seed, digest in self.runs if digest != self.reference]

    @property
    def ok(self) -> bool:
        return not self.divergent_seeds

    def to_json(self) -> dict:
        return {
            "scenario": self.name,
            "reference_digest": self.reference,
            "runs": [
                {"seed": seed, "digest": digest} for seed, digest in self.runs
            ],
            "divergent_seeds": self.divergent_seeds,
            "ok": self.ok,
        }


@dataclass
class SanitizeReport:
    """The full `repro sanitize` outcome, reproducible from root_seed."""

    root_seed: int
    seeds: int
    results: list[ScenarioResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    def to_json(self) -> dict:
        return {
            "root_seed": self.root_seed,
            "seeds_per_scenario": self.seeds,
            "ok": self.ok,
            "scenarios": [result.to_json() for result in self.results],
        }

    def render(self) -> str:
        lines = []
        for result in self.results:
            status = "ok" if result.ok else "DIVERGENT"
            lines.append(
                f"{result.name:11s} {status:9s} reference={result.reference[:16]} "
                f"runs={len(result.runs)}"
            )
            for seed in result.divergent_seeds:
                digest = dict(result.runs)[seed]
                lines.append(
                    f"  seed {seed}: digest {digest[:16]} != reference "
                    "(schedule dependence — reproduce with this seed)"
                )
        verdict = ("sanitize: all scenarios schedule-independent"
                   if self.ok else "sanitize: schedule dependence detected")
        lines.append(verdict)
        return "\n".join(lines)


def run_sanitize(
    scenario_names: list[str] | None = None,
    seeds: int = DEFAULT_SEEDS,
    root_seed: int = 0,
) -> SanitizeReport:
    """Run each scenario under FIFO plus *seeds* perturbed schedules."""
    if seeds < 1:
        raise ValueError("seeds must be >= 1")
    names = list(scenario_names or SCENARIOS)
    unknown = [name for name in names if name not in SCENARIOS]
    if unknown:
        raise ValueError(f"unknown scenario(s): {', '.join(unknown)}")
    report = SanitizeReport(root_seed=root_seed, seeds=seeds)
    for name in names:
        scenario = SCENARIOS[name]
        result = ScenarioResult(name=name, reference=scenario(None))
        for index in range(seeds):
            seed = derive_seed(root_seed, name, index)
            result.runs.append((seed, scenario(seed)))
        report.results.append(result)
    return report
