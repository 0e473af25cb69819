"""The network (RDMA) library (§5.2).

"includes all the logic and data (e.g., Tx/Rx queues per connection,
local and remote memory addresses, RDMA keys that denote memory access
permissions) required to implement the RDMA protocol. It executes the
application's networking operations by posting the requests to the
hardware. More specifically, it creates an internal representation of
the request and the associated data and metadata (i.e., request
opcode, remote IP, source/destination addresses, data length, etc.)
and writes them into specific offsets in the REGs pages to update the
control registers of the TNIC hardware."

Here the request reaches the device as the arguments of one
``TnicDevice.send`` call: nothing in the model reads a register copy,
and the doorbell and descriptor fetch are timed by the DMA engine's
per-transfer set-up (:meth:`repro.core.dma.DmaEngine.setup_cost_us`).
Zero payload copies: the hardware DMA-reads straight from ibv memory.
The post is one call with no yield, so it needs no lock (§5.2's
TNIC-OS lock guards concurrent posters, which a post that never yields
cannot have).  The read is taken at the post: a caller may reuse the
staging bytes as soon as ``post`` returns (``IbvConnection.stage`` is
a ring).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.core.device import RemoteAccessError, TnicDevice
from repro.net.packet import RdmaOpcode
from repro.sim.events import Event
from repro.sim.instrument import NULL_SPAN, TRACE_PARENT, count, span_begin
from repro.stack.memory import IbvMemory, MemoryError_, RdmaKey

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.clock import Simulator

@dataclass
class WorkRequest:
    """Internal representation of one posted operation."""

    opcode: RdmaOpcode
    qp_number: int
    local_addr: int
    length: int
    remote_addr: int = 0
    rkey: RdmaKey | None = None
    meta: dict[str, Any] = field(default_factory=dict)


class MemoryTable:
    """The device-visible view over every registered ibv region.

    Routes DMA accesses to the containing region, exactly like the
    NIC's memory-translation table does for registered buffers.
    """

    def __init__(self) -> None:
        self._regions: dict[int, IbvMemory] = {}

    def add(self, region: IbvMemory) -> None:
        self._regions[region.lkey.value] = region

    def region_for(self, address: int, length: int) -> IbvMemory:
        for region in self._regions.values():
            if region.contains(address, length):
                return region
        raise MemoryError_(
            f"address {address:#x} (+{length}) is not in registered ibv memory"
        )

    # The device's one-sided port: every access is gated by the rkey
    # the peer presented, and a refusal is the device's exception.
    def dma_write(self, address: int, data: bytes, rkey: int | None) -> None:
        try:
            self.region_for(address, len(data)).remote_write(rkey, address, data)
        except MemoryError_ as exc:
            raise RemoteAccessError(str(exc)) from None

    def dma_read(self, address: int, length: int, rkey: int | None) -> bytes:
        try:
            return self.region_for(address, length).remote_read(rkey, address, length)
        except MemoryError_ as exc:
            raise RemoteAccessError(str(exc)) from None


class _Post:
    """One posted work request: DMA snapshot → ``TnicDevice.send``.

    The post runs as one call, not as a process.  ``done``, the
    request's one completion event, is handed down to the device; the
    post adds no callback of its own to it.
    """

    __slots__ = ("lib", "request", "done", "span")

    def __init__(self, lib: "RdmaLibrary", request: WorkRequest, done: Event) -> None:
        self.lib = lib
        self.request = request
        self.done = done

    def start(self) -> None:
        # The "post" stage of the send breakdown: DMA snapshot and
        # hand-off, ending when the device owns the WR.
        # Joins the caller's trace when the work request carries one
        # (auth_send carries its root span in request.meta).
        lib = self.lib
        request = self.request
        span = NULL_SPAN
        if lib.sim.telemetry is not None:
            span = span_begin(lib.sim, "tnic.post",
                              parent=request.meta.get(TRACE_PARENT),
                              qp=request.qp_number, bytes=request.length)
        self.span = span
        try:
            payload = lib.region_for_address(
                request.local_addr, request.length
            ).dma_read(request.local_addr, request.length)
            meta = dict(request.meta)
            if span is not NULL_SPAN:
                # Hand the device *this* stage's span so tnic.tx
                # nests under tnic.post in the causal tree.
                meta[TRACE_PARENT] = span
            if request.opcode is RdmaOpcode.WRITE:
                meta["remote_addr"] = request.remote_addr
                if request.rkey is not None:
                    meta["rkey"] = request.rkey.value
            lib.device.send(request.qp_number, payload,
                            opcode=request.opcode,
                            meta=meta, completion=self.done)
        except Exception as exc:
            self._refused(exc)
            return
        if span is not NULL_SPAN:
            span.end(status="ok")
        if lib.sim.telemetry is not None:
            count(lib.sim, "rdma.posted", qp=request.qp_number)

    def _refused(self, exc: Exception) -> None:
        """The completion event is the error channel: nothing raises
        into the caller or out of the event loop."""
        self.span.end(status="error")
        self.done.fail(exc)


class RdmaLibrary:
    """Per-node RDMA software state and the request-posting path.

    ``post`` starts no process: the request is handed to the device at
    once, and the event it returns is the device's completion
    (:class:`_Post`).
    """

    def __init__(self, sim: "Simulator", device: TnicDevice) -> None:
        self.sim = sim
        self.device = device
        self.memory_table = MemoryTable()
        self.device.attach_host_memory(self.memory_table)

    # ------------------------------------------------------------------
    # Memory registration (init_lqueue)
    # ------------------------------------------------------------------
    def register_memory(self, region: IbvMemory) -> None:
        """Register *region* with the TNIC hardware for DMA."""
        region.register()
        self.memory_table.add(region)

    def region_for_address(self, address: int, length: int) -> IbvMemory:
        return self.memory_table.region_for(address, length)

    # ------------------------------------------------------------------
    # Posting requests
    # ------------------------------------------------------------------
    def post(self, request: WorkRequest) -> "Event":
        """Hand *request* to the device; returns the completion event
        for the posted operation.

        The request's bytes are read here, so the caller may overwrite
        them once this returns.  A failure at any stage (unregistered
        address, unknown QP, device or transport error) fails the
        returned event exactly once.
        """
        done = Event(self.sim)
        _Post(self, request, done).start()
        return done

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def poll(self, qp_number: int, max_entries: int = 16):
        """Pop up to *max_entries* verified deliveries (the poll() API)."""
        return self.device.poll(qp_number, max_entries)

    def receive(self, qp_number: int):
        """Pop the next verified message body, if any."""
        return self.device.receive(qp_number)
