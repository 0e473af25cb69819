"""Initialisation APIs (Table 1) and cluster assembly.

"The TNIC application first needs to configure the TNIC system to
establish peer-to-peer RDMA connections. The application creates one
ibv struct for each connection with ibv_qp_conn() ... invokes
alloc_mem() to allocate the ibv memory and then register the ibv
memory to the TNIC hardware [init_lqueue()]. Lastly, the application
synchronizes with the remote machine using ibv_sync() to exchange
necessary data (e.g., ibv memory address, queue pair numbers)."

:class:`TnicNode` bundles one machine: device + stack;
:class:`Cluster` stands up several nodes on one simulated fabric and
plays the System-designer role of installing per-session shared keys
(in deployment those keys arrive through the remote-attestation
protocol of §4.3 — see :mod:`repro.attest_protocol`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.device import TnicDevice
from repro.crypto.hashing import sha256
from repro.net.arp import ArpServer
from repro.net.fabric import Fabric, NetworkFault
from repro.roce.queue_pair import QueuePair
from repro.sim.clock import Simulator
from repro.sim.rng import DeterministicRng
from repro.stack.memory import HugePageArea, IbvMemory
from repro.stack.rdma_lib import RdmaLibrary

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.events import Event


class SessionDirectory:
    """System-designer role: allocates session ids and shared keys.

    One session per connection ("ideally, one shared key for each
    session"); keys are derived deterministically from a root secret so
    simulations are reproducible, and handed *only* to the two devices'
    keystores — application code never sees them.
    """

    def __init__(self, root_secret: bytes = b"tnic-root-secret") -> None:
        self._root = root_secret
        self._next_session = itertools.count(1)

    def new_session(self) -> tuple[int, bytes]:
        session_id = next(self._next_session)
        key = sha256(self._root, session_id)
        return session_id, key


@dataclass
class IbvConnection:
    """The per-connection ibv struct created by ``ibv_qp_conn()``."""

    node: "TnicNode"
    qp: QueuePair
    #: Filled by ibv_sync(): the peer's registered memory window.
    remote_base: int = 0
    remote_rkey: int | None = None
    remote_size: int = 0
    #: Local staging region for outgoing payloads.
    tx_region: IbvMemory | None = None
    _tx_cursor: int = 0
    synced: bool = False

    @property
    def qp_number(self) -> int:
        return self.qp.qp_number

    @property
    def session_id(self) -> int:
        return self.qp.session_id

    def stage(self, payload: bytes) -> int:
        """Copy *payload* into the tx region; returns its address.

        The region is a ring and wraps without accounting: a staged
        slot is free again once the request that names it has been
        posted, because ``RdmaLibrary.post`` reads the bytes at the
        post.  Stage, then post, before staging the next payload.
        """
        if self.tx_region is None:
            raise RuntimeError("connection has no tx region (call alloc_mem)")
        if len(payload) > self.tx_region.size:
            raise ValueError("payload larger than the tx region")
        if self._tx_cursor + len(payload) > self.tx_region.size:
            self._tx_cursor = 0
        address = self.tx_region.base + self._tx_cursor
        self.tx_region.write(address, payload)
        self._tx_cursor += max(len(payload), 64)
        return address


class TnicNode:
    """One machine: host software stack + TNIC device."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        ip: str,
        device_id: int,
        arp: ArpServer,
        trusted: bool = True,
    ) -> None:
        self.sim = sim
        self.name = name
        self.ip = ip
        mac_address = f"02:00:00:00:00:{device_id:02x}"
        self.device = TnicDevice(
            sim, device_id, ip, mac_address, arp, trusted=trusted
        )
        self.rdma = RdmaLibrary(sim, self.device)
        self.hugepages = HugePageArea()
        self._next_qp = itertools.count(device_id * 1000 + 1)
        self.connections: list[IbvConnection] = []

    # ------------------------------------------------------------------
    # Table 1 — initialisation APIs
    # ------------------------------------------------------------------
    def ibv_qp_conn(self, remote_ip: str, session_id: int) -> IbvConnection:
        """Create the ibv struct for one connection (queue pair etc.)."""
        qp = QueuePair(
            qp_number=next(self._next_qp),
            session_id=session_id,
            local_ip=self.ip,
            remote_ip=remote_ip,
        )
        self.device.create_qp(qp)
        connection = IbvConnection(node=self, qp=qp)
        self.connections.append(connection)
        return connection

    def alloc_mem(self, size: int) -> IbvMemory:
        """Allocate host ibv memory in the huge-page area."""
        return self.hugepages.allocate(size)

    def init_lqueue(self, region: IbvMemory) -> None:
        """Register local memory to the TNIC hardware: file it in the
        memory table under its lkey and rkey."""
        self.rdma.memory_table.add(region)


def ibv_sync(
    conn_a: IbvConnection,
    conn_b: IbvConnection,
    region_a: IbvMemory | None = None,
    region_b: IbvMemory | None = None,
) -> None:
    """Exchange ibv memory addresses and QP numbers between two peers.

    Models the out-of-band (TCP) synchronisation step of the original
    RDMA workflow.  Each side learns the other's QP number and — when a
    region is supplied — the remote window's base address and rkey.
    """
    if conn_a.qp.remote_ip != conn_b.qp.local_ip:
        raise ValueError("connections do not point at each other")
    if conn_a.qp.session_id != conn_b.qp.session_id:
        raise ValueError("connections must share one attestation session")
    conn_a.node.device.connect_qp(conn_a.qp_number, conn_b.qp_number)
    conn_b.node.device.connect_qp(conn_b.qp_number, conn_a.qp_number)
    if region_b is not None:
        conn_a.remote_base = region_b.base
        conn_a.remote_rkey = region_b.rkey
        conn_a.remote_size = region_b.size
    if region_a is not None:
        conn_b.remote_base = region_a.base
        conn_b.remote_rkey = region_a.rkey
        conn_b.remote_size = region_a.size
    conn_a.synced = True
    conn_b.synced = True


class Cluster:
    """A simulated deployment: nodes, fabric and session management.

    The default buffer plan gives each connection a staging tx region
    and a registered rx window, mirroring the memory management of
    user-space networking libraries (§5.2).
    """

    DEFAULT_REGION_BYTES = 4 * 1024 * 1024

    def __init__(
        self,
        node_names: list[str],
        trusted: bool = True,
        fault: NetworkFault | None = None,
        seed: int = 0,
    ) -> None:
        if len(set(node_names)) != len(node_names):
            raise ValueError("node names must be unique")
        self.sim = Simulator()
        self.arp = ArpServer()
        self.rng = DeterministicRng(seed, "cluster")
        self.fabric = Fabric(
            self.sim, fault=fault, rng=self.rng.derive("fabric")
        )
        self.sessions = SessionDirectory()
        self.nodes: dict[str, TnicNode] = {}
        for index, name in enumerate(node_names):
            node = TnicNode(
                self.sim,
                name=name,
                ip=f"10.0.0.{index + 1}",
                device_id=index + 1,
                arp=self.arp,
                trusted=trusted,
            )
            self.fabric.register(node.device.mac)
            self.nodes[name] = node

    def __getitem__(self, name: str) -> TnicNode:
        return self.nodes[name]

    def connect(
        self, name_a: str, name_b: str, region_bytes: int | None = None
    ) -> tuple[IbvConnection, IbvConnection]:
        """Full Table-1 initialisation between two nodes.

        Performs ibv_qp_conn + alloc_mem + init_lqueue + ibv_sync and —
        acting as the System designer — installs the shared session key
        in both devices' keystores.  A node cannot connect to itself:
        that is refused before any key or session number is issued.
        """
        if name_a == name_b:
            raise ValueError(f"cannot connect node {name_a!r} to itself")
        node_a, node_b = self.nodes[name_a], self.nodes[name_b]
        session_id, key = self.sessions.new_session()
        if node_a.device.trusted:
            node_a.device.install_session(session_id, key)
        if node_b.device.trusted:
            node_b.device.install_session(session_id, key)
        conn_a = node_a.ibv_qp_conn(node_b.ip, session_id)
        conn_b = node_b.ibv_qp_conn(node_a.ip, session_id)
        size = self.DEFAULT_REGION_BYTES if region_bytes is None else region_bytes
        region_a = node_a.alloc_mem(size)
        region_b = node_b.alloc_mem(size)
        node_a.init_lqueue(region_a)
        node_b.init_lqueue(region_b)
        conn_a.tx_region = node_a.alloc_mem(size)
        conn_b.tx_region = node_b.alloc_mem(size)
        node_a.init_lqueue(conn_a.tx_region)
        node_b.init_lqueue(conn_b.tx_region)
        ibv_sync(conn_a, conn_b, region_a, region_b)
        return conn_a, conn_b

    def run(self, until: "float | Event | None" = None):
        return self.sim.run(until)
