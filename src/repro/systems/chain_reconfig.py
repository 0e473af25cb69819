"""Chain-replication reconfiguration (Appendix C.4 system model).

"For error detection and reconfiguration, we assume a centralized
(trusted) configuration service as in [van Renesse et al.] that
generates new configurations upon receiving reconfiguration requests
from replicas. ... Suppose a correct replica or a client detects a
violation (by examining the proof of execution message or having to
hear for too long from a node). In that case, they can expose the
faulty node and request a reconfiguration."

:class:`ReconfigurableChain` wraps :class:`~repro.systems.chain.
ChainReplication` in a trusted configuration service: when a request
fails to commit, the service collects the replicas' fault evidence,
identifies the accused node, forms a new configuration without it
("replicas can establish new connections with new identifiers" — each
configuration is a fresh set of sessions), transfers the majority
state, and the client retries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.systems.chain import (
    ChainBehaviour,
    ChainReplication,
    KvRequest,
    role_names,
)
from repro.systems.common import SystemMetrics


class ReconfigurationError(Exception):
    """No valid new configuration can be formed."""


@dataclass
class ConfigurationRecord:
    """One configuration generation."""

    epoch: int
    members: list[str]
    excluded: list[str] = field(default_factory=list)


class ReconfigurableChain:
    """A chain KV store that survives exposed Byzantine replicas."""

    def __init__(
        self,
        provider_name: str = "tnic",
        chain_length: int = 4,
        seed: int = 0,
        behaviours: dict[str, ChainBehaviour] | None = None,
        request_timeout_us: float = 30_000.0,
    ) -> None:
        if chain_length < 3:
            raise ValueError(
                "reconfiguration needs at least 3 replicas (so a "
                "2-replica chain remains after one exclusion)"
            )
        self.provider_name = provider_name
        self.seed = seed
        self.request_timeout_us = request_timeout_us
        self._behaviours = dict(behaviours or {})
        self._all_names = role_names(chain_length)
        self.configurations: list[ConfigurationRecord] = []
        self.exposed: list[str] = []
        self.metrics = SystemMetrics()
        self._elapsed_us = 0.0
        self.current = self._build(self._all_names, epoch=0, store={})

    # ------------------------------------------------------------------
    # The trusted configuration service
    # ------------------------------------------------------------------
    def _build(
        self, members: list[str], epoch: int, store: dict[str, str]
    ) -> ChainReplication:
        """Instantiate a configuration: fresh sessions and connections."""
        # Positions are re-derived from the surviving members; the
        # underlying ChainReplication names nodes by role, so map the
        # role names onto the member identities.
        member_map = dict(zip(role_names(len(members)), members))
        behaviours = {
            role: self._behaviours[member]
            for role, member in member_map.items()
            if member in self._behaviours
        }
        system = ChainReplication(
            self.provider_name,
            chain_length=len(members),
            seed=self.seed + epoch,  # new identifiers per configuration
            behaviours=behaviours,
        )
        self._member_map = member_map
        for node in system.nodes.values():
            node.store.update(store)  # state transfer
        self.configurations.append(
            ConfigurationRecord(epoch=epoch, members=list(members),
                                excluded=list(self.exposed))
        )
        return system

    def _identify_accused(self) -> str:
        """Expose the faulty member from the replicas' evidence.

        Each fault record reads ``"<accused-role>: <detail>"`` and is
        held by the detecting replica; the configuration service trusts
        the chained-PoE evidence (it is attested) and excludes the
        most-accused member.
        """
        accusations: dict[str, int] = {}
        for detector, faults in self.current.detected_faults().items():
            for fault in faults:
                accused_role = fault.split(":", 1)[0].strip()
                if accused_role in self.current.nodes:
                    member = self._member_map[accused_role]
                    accusations[member] = accusations.get(member, 0) + 1
        if not accusations:
            # Non-responsiveness (drop_forward): blame the first member
            # whose successor never saw the chained message.
            progressed = {
                role: node.commit_index
                for role, node in self.current.nodes.items()
            }
            roles = role_names(len(progressed))
            for earlier, later in zip(roles, roles[1:]):
                if progressed[later] < progressed[earlier]:
                    return self._member_map[earlier]
            raise ReconfigurationError("no fault evidence to act on")
        return max(accusations, key=accusations.get)

    def _majority_store(self, exclude: str) -> dict[str, str]:
        """State transfer: the store agreed on by a majority of the
        surviving replicas."""
        from collections import Counter

        snapshots = [
            tuple(sorted(node.store.items()))
            for role, node in self.current.nodes.items()
            if self._member_map[role] != exclude
        ]
        most_common, _count = Counter(snapshots).most_common(1)[0]
        return dict(most_common)

    def _reconfigure(self) -> None:
        accused = self._identify_accused()
        self.exposed.append(accused)
        survivors = [
            m for m in self.configurations[-1].members if m != accused
        ]
        if len(survivors) < 2:
            raise ReconfigurationError(
                "fewer than two correct replicas remain"
            )
        store = self._majority_store(accused)
        self._elapsed_us += self.current.sim.now
        self.current = self._build(
            survivors, epoch=len(self.configurations), store=store
        )

    # ------------------------------------------------------------------
    # Client-facing workload
    # ------------------------------------------------------------------
    def run_workload(self, requests: list[KvRequest]) -> SystemMetrics:
        """Execute *requests*, reconfiguring around exposed replicas."""
        for request in requests:
            while True:
                self.current.aborted = False
                before = self.current.metrics.committed
                self.current.run_workload(
                    [request], timeout_us=self.request_timeout_us
                )
                if self.current.metrics.committed > before:
                    latency = self.current.metrics.latencies_us[-1]
                    self.metrics.record(latency)
                    break
                self._reconfigure()
        self._elapsed_us += self.current.sim.now
        self.metrics.started_at = 0.0
        self.metrics.finished_at = self._elapsed_us
        return self.metrics

    # ------------------------------------------------------------------
    def stores(self) -> dict[str, dict[str, str]]:
        return {
            self._member_map[role]: dict(node.store)
            for role, node in self.current.nodes.items()
        }

    @property
    def epoch(self) -> int:
        return len(self.configurations) - 1
