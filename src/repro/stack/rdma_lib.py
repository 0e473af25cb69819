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
per-transfer set-up (``TNIC_ASYNC_FIXED_US``, :mod:`repro.core.dma`).
Zero payload copies: the hardware DMA-reads straight from ibv memory.

The RDMA keys are the library's :class:`MemoryTable`: registering a
region files it under its lkey, which the host's posts name, and its
rkey, which a peer's one-sided accesses present.  Each access is one
lookup and a bounds check inside the region the key names.

The post is one call with no yield, so it needs no lock (§5.2's
TNIC-OS lock guards concurrent posters, which a post that never yields
cannot have).  The read is taken at the post: a caller may reuse the
staging bytes as soon as ``post`` returns (``IbvConnection.stage`` is
a ring).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.core.device import RemoteAccessError, TnicDevice
from repro.net.packet import RdmaExtendedHeader, RdmaOpcode
from repro.sim.events import Event
from repro.sim.instrument import NULL_SPAN, count, span_begin
from repro.sim.record import Record, record
from repro.stack.memory import IbvMemory, MemoryError_

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.clock import Simulator


@record
class WorkRequest(Record):
    """Internal representation of one posted operation.

    *lkey* names the registered region that holds the bytes at
    ``[local_addr, +length)``; a WRITE's *reth* names the peer's window;
    *parent* is the caller's span, which the post's span joins
    (``auth_send`` passes its root span).
    """

    opcode: RdmaOpcode
    qp_number: int
    local_addr: int
    length: int
    lkey: int
    reth: RdmaExtendedHeader | None = None
    parent: Any = None


class MemoryTable:
    """The registered ibv regions, by the keys that name them.

    Like the NIC's memory-translation table: a region is registered
    exactly when it is filed here, under its lkey for the host's posts
    and under its rkey for a peer's one-sided accesses.  A peer that
    presents an lkey names nothing.
    """

    def __init__(self) -> None:
        self._by_lkey: dict[int, IbvMemory] = {}
        self._by_rkey: dict[int, IbvMemory] = {}

    def add(self, region: IbvMemory) -> None:
        self._by_lkey[region.lkey] = region
        self._by_rkey[region.rkey] = region

    def local(self, lkey: int) -> IbvMemory:
        """The registered region *lkey* names (the host's port)."""
        return _named(self._by_lkey, "lkey", lkey)

    # The device's one-sided port: every access is gated by the rkey
    # the peer presented, and a refusal is the device's exception.
    def dma_write(self, address: int, data: bytes, rkey: int | None) -> None:
        try:
            _named(self._by_rkey, "rkey", rkey).write(address, data)
        except MemoryError_ as exc:
            raise RemoteAccessError(str(exc)) from None

    def dma_read(self, address: int, length: int, rkey: int | None) -> bytes:
        try:
            return _named(self._by_rkey, "rkey", rkey).read(address, length)
        except MemoryError_ as exc:
            raise RemoteAccessError(str(exc)) from None


def _named(regions: dict[int, IbvMemory], kind: str, key: int | None) -> IbvMemory:
    region = regions.get(key)
    if region is None:
        raise MemoryError_(f"{kind} {key!r} names no registered ibv memory")
    return region


class RdmaLibrary:
    """Per-node RDMA software state and the request-posting path.

    ``post`` starts no process: the request is handed to the device at
    once, and the event it returns is the device's completion.
    """

    def __init__(self, sim: "Simulator", device: TnicDevice) -> None:
        self.sim = sim
        self.device = device
        self.memory_table = MemoryTable()
        self.device.attach_host_memory(self.memory_table)

    def post(self, request: WorkRequest) -> "Event":
        """Hand *request* to the device; returns the completion event
        for the posted operation.

        The request's bytes are read here, so the caller may overwrite
        them once this returns.  A failure at any stage (a range outside
        the region the lkey names, unknown QP, device or transport
        error) fails the returned event exactly once: nothing raises
        into the caller or out of the event loop.
        """
        sim = self.sim
        done = Event(sim)
        # The "post" stage of the send breakdown: DMA snapshot and
        # hand-off, ending when the device owns the WR.  The device gets
        # *this* stage's span, so tnic.tx nests under tnic.post.
        span = NULL_SPAN
        if sim.telemetry is not None:
            span = span_begin(sim, "tnic.post", parent=request.parent,
                              qp=request.qp_number, bytes=request.length)
        try:
            payload = self.memory_table.local(request.lkey).read(
                request.local_addr, request.length)
            self.device.send(request.qp_number, payload, request.opcode,
                             request.reth, done, span)
        except Exception as exc:
            span.end(status="error")
            done.fail(exc)
            return done
        if span is not NULL_SPAN:
            span.end(status="ok")
            count(sim, "rdma.posted", qp=request.qp_number)
        return done

    def poll(self, qp_number: int, max_entries: int = 16):
        """Pop up to *max_entries* verified deliveries (the poll() API)."""
        return self.device.poll(qp_number, max_entries)

    def receive(self, qp_number: int):
        """Pop the next verified message body, if any."""
        return self.device.receive(qp_number)
