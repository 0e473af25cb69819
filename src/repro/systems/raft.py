"""TEEs-Raft: failure-free Raft hosted entirely inside TEEs (§8.3).

The paper's comparison point for TNIC-BFT: the *whole* protocol
codebase runs inside AMD SEV VMs, so the system only tolerates crash
faults (the TEE shields it from the Byzantine environment) but pays a
multi-million-LoC TCB (Table 4).  Performance-wise Raft wins on its
one-phase commit: the leader replies to the client after a single
majority-ack round, with no per-message attestation work.

This module implements the failure-free replication path of Raft
properly — terms, log indices, AppendEntries consistency checks, match
indices and commit advancement — because the benchmark compares commit
behaviour, not just message counts.
"""

from __future__ import annotations

from repro.sim.clock import Simulator
from repro.sim.record import Record, record
from repro.systems.common import Client, EmulatedNetwork, Station, SystemMetrics

#: Extra cost a TEE-hosted process pays per network message (enclave
#: I/O transitions; SEV VM-exit overheads).  Calibrated so TEEs-Raft
#: lands ~2.5x above TNIC-BFT under pipelined load as reported in §8.3.
TEE_IO_OVERHEAD_US = 3.0


@record
class LogEntry(Record):
    term: int
    index: int
    command: str


@record
class ClientCommand(Record):
    kind = "command"
    request_id: int
    command: str


@record
class AppendEntries(Record):
    kind = "append_entries"
    term: int
    leader: str
    prev_log_index: int
    prev_log_term: int
    entries: tuple[LogEntry, ...]
    leader_commit: int


@record
class AppendReply(Record):
    kind = "append_reply"
    term: int
    follower: str
    success: bool
    match_index: int


@record
class ClientReply(Record):
    kind = "client_reply"
    request_id: int
    result: str


class _RaftNode(Station):
    """One Raft participant inside a TEE: a station whose every message
    is one stage of :data:`TEE_IO_OVERHEAD_US` that ends in :meth:`lead`
    or :meth:`follow`."""

    def __init__(self, name: str, system: "TeeRaft") -> None:
        super().__init__(system.network, name)
        self.system = system
        self.current_term = 1
        self.log: list[LogEntry] = []
        self.commit_index = 0  # count of committed entries
        self.applied: list[str] = []
        if name != system.leader_name:
            self._step = self.follow
            return
        self._step = self.lead
        # Raft's volatile leader state.
        self.match_index = dict.fromkeys(system.followers, 0)
        #: Raft's per-follower replication cursor: the next log index to
        #: ship.  Walked backwards on consistency-check failures so a
        #: follower that lost traffic is repaired from the divergence
        #: point.
        self.next_index = dict.fromkeys(system.followers, 1)
        #: Highest index already shipped (avoids re-sending in-flight
        #: suffixes on every acknowledgement under pipelined load).
        self.shipped = dict.fromkeys(system.followers, 0)
        self.pending: dict[int, int] = {}  # log index -> request_id

    def start(self, message, start: float) -> None:
        self.sim.call_at(start + TEE_IO_OVERHEAD_US, self._step, message)

    # ------------------------------------------------------------------
    # Leader
    # ------------------------------------------------------------------
    def lead(self, message) -> None:
        if isinstance(message, ClientCommand):
            entry = LogEntry(self.current_term, len(self.log) + 1,
                             message.command)
            self.log.append(entry)
            self.pending[entry.index] = message.request_id
            for follower in self.system.followers:
                self._ship(follower)
        elif isinstance(message, AppendReply):
            follower = message.follower
            next_index = self.next_index
            if not message.success:
                # Log repair: walk the cursor back and retry.
                next_index[follower] = max(1, next_index[follower] - 1)
                self.shipped[follower] = 0
                self._ship(follower)
                return self.next()
            match = max(self.match_index[follower], message.match_index)
            self.match_index[follower] = match
            next_index[follower] = max(next_index[follower], match + 1)
            # Recovered/behind follower: stream the not-yet-shipped
            # remainder (no-op when everything in flight).
            self._ship(follower)
            self._advance_commit()
        self.next()

    def _ship(self, follower: str) -> None:
        """Ship the un-shipped suffix starting at the follower's cursor."""
        next_index = self.next_index[follower]
        start = max(next_index, self.shipped[follower] + 1)
        if start > len(self.log):
            return
        prev_index = next_index - 1
        prev_term = self.log[prev_index - 1].term if prev_index >= 1 else 0
        entries = tuple(self.log[next_index - 1 :])
        self.shipped[follower] = len(self.log)
        self.system.network.send(
            follower,
            AppendEntries(self.current_term, self.name, prev_index, prev_term,
                          entries, self.commit_index),
        )

    def _advance_commit(self) -> None:
        """Commit every index replicated on a majority."""
        system = self.system
        majority = (len(system.followers) + 1) // 2 + 1
        matches = self.match_index.values()
        for index in range(self.commit_index + 1, len(self.log) + 1):
            replicas = 1
            for match in matches:
                if match >= index:
                    replicas += 1
            if replicas < majority:
                break
            self.commit_index = index
            entry = self.log[index - 1]
            self.applied.append(entry.command)
            request_id = self.pending.pop(index, None)
            if request_id is not None:
                system.network.send(
                    system.client_name,
                    ClientReply(request_id, f"applied:{entry.command}"),
                )

    # ------------------------------------------------------------------
    # Follower
    # ------------------------------------------------------------------
    def follow(self, message) -> None:
        if not isinstance(message, AppendEntries):
            return self.next()
        success = self._consistency_check(message)
        if success:
            for entry in message.entries:
                if entry.index > len(self.log):
                    self.log.append(entry)
            new_commit = min(message.leader_commit, len(self.log))
            while self.commit_index < new_commit:
                self.commit_index += 1
                self.applied.append(self.log[self.commit_index - 1].command)
        self.system.network.send(
            message.leader,
            AppendReply(self.current_term, self.name, success, len(self.log)),
        )
        self.next()

    def _consistency_check(self, message: AppendEntries) -> bool:
        if message.term < self.current_term:
            return False
        if message.prev_log_index == 0:
            return True
        if message.prev_log_index > len(self.log):
            return False
        return self.log[message.prev_log_index - 1].term == message.prev_log_term


class _Client(Client):
    """The client: commands pipelined up to the deployment's depth, each
    done on the leader's reply."""

    def submit(self, commands: int) -> SystemMetrics:
        self._commands = commands
        self._next_id = 0
        self._completed = 0
        self._sent_at: dict[int, float] = {}
        return self.run(self.begin)

    def send_next(self) -> None:
        """Fill the pipeline, or end the run once every command is done."""
        system = self.system
        if self._completed == self._commands:
            return self.end()
        while (self._next_id < self._commands
               and len(self._sent_at) < system.pipeline_depth):
            command_id = self._next_id
            self._sent_at[command_id] = self.sim._now
            system.network.send(system.leader_name,
                                ClientCommand(command_id, f"cmd{command_id}"))
            self._next_id += 1

    def received(self, reply, parent) -> None:
        if isinstance(reply, ClientReply) and reply.request_id in self._sent_at:
            self.system.metrics.record(
                self.sim._now - self._sent_at.pop(reply.request_id))
            self._completed += 1
            self.send_next()


class TeeRaft:
    """Three-node failure-free Raft deployment inside TEEs."""

    def __init__(self, nodes: int = 3, pipeline_depth: int = 1) -> None:
        if nodes < 3 or nodes % 2 == 0:
            raise ValueError("Raft needs an odd node count >= 3")
        if pipeline_depth < 1:
            raise ValueError("pipeline_depth must be >= 1")
        self.sim = Simulator()
        self.network = EmulatedNetwork(self.sim)
        names = [f"n{i}" for i in range(nodes)]
        self.leader_name = names[0]
        self.followers = names[1:]
        self.client_name = "client"
        self.pipeline_depth = pipeline_depth
        self.nodes = {name: _RaftNode(name, self) for name in names}
        self.client = _Client(self, self.client_name)
        self.metrics = SystemMetrics(sim=self.sim, system="raft")

    def run_workload(self, commands: int) -> SystemMetrics:
        return self.client.submit(commands)

    # ------------------------------------------------------------------
    def logs_consistent(self) -> bool:
        """Committed prefixes must agree across all nodes."""
        prefixes = [
            tuple(e.command for e in node.log[: node.commit_index])
            for node in self.nodes.values()
        ]
        shortest = min(len(p) for p in prefixes)
        return all(p[:shortest] == prefixes[0][:shortest] for p in prefixes)
