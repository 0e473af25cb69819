"""Application network buffers: the ibv memory (§5.2).

"the network buffers need to be mapped to a specific TNIC-memory,
called the ibv memory. The ibv memory area is allocated at the
connection creation in the huge page area by the application through
the ibv library. It resides within the application's address space
with full read/write permissions and is eligible for DMA transfers."

:class:`HugePageArea` hands out address ranges; :class:`IbvMemory` is
one registered region with lkey/rkey access keys gating local and
remote (one-sided RDMA) access, plus the DMA port the device uses.

Ibv memory is demand-zero: a region is a private anonymous mapping, so
registering it reserves address space only.  A page becomes resident
when the application stages into it or the device DMAs or places into
it, and a byte nobody wrote reads back as zero.  A connection therefore
costs the bytes staged on it, not the size of its windows.
"""

from __future__ import annotations

import itertools
import mmap

from repro.sim.record import Record, record

HUGE_PAGE_BYTES = 2 * 1024 * 1024


class MemoryError_(Exception):
    """Raised on out-of-bounds or permission-violating memory access."""


@record
class RdmaKey(Record):
    """An RDMA access key: permission token for a registered region."""

    value: int
    region_base: int
    remote_write: bool = True
    remote_read: bool = True


class HugePageArea:
    """The process's huge-page arena from which ibv memory is carved."""

    def __init__(self) -> None:
        self._next_address = 0x7F00_0000_0000  # the arena's base address
        self._key_counter = itertools.count(0x1000)
        self.allocated_bytes = 0

    def allocate(self, size: int) -> "IbvMemory":
        """Carve a hugepage-aligned region of at least *size* bytes."""
        if size <= 0:
            raise MemoryError_(f"allocation size must be positive, got {size}")
        pages = -(-size // HUGE_PAGE_BYTES)
        span = pages * HUGE_PAGE_BYTES
        base = self._next_address
        self._next_address += span
        self.allocated_bytes += span
        lkey = RdmaKey(next(self._key_counter), base)
        rkey = RdmaKey(next(self._key_counter), base)
        return IbvMemory(base=base, size=span, lkey=lkey, rkey=rkey)


class IbvMemory:
    """One DMA-eligible registered memory region."""

    def __init__(self, base: int, size: int, lkey: RdmaKey, rkey: RdmaKey) -> None:
        self.base = base
        self.size = size
        self.lkey = lkey
        self.rkey = rkey
        #: Demand-zero backing: slicing it returns ``bytes`` directly,
        #: the only copy a read makes.
        self._buffer = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)
        self.registered = False

    # ------------------------------------------------------------------
    # Registration (init_lqueue)
    # ------------------------------------------------------------------
    def register(self) -> None:
        """Pin the region and make it visible to the TNIC DMA engine."""
        self.registered = True

    # ------------------------------------------------------------------
    # Application access
    # ------------------------------------------------------------------
    def write(self, address: int, data: bytes) -> None:
        offset = self._offset(address, len(data))
        self._buffer[offset : offset + len(data)] = data

    def read(self, address: int, length: int) -> bytes:
        offset = self._offset(address, length)
        return self._buffer[offset : offset + length]

    # ------------------------------------------------------------------
    # Device (DMA) port — requires registration
    # ------------------------------------------------------------------
    def dma_write(self, address: int, data: bytes) -> None:
        if not self.registered:
            raise MemoryError_("DMA into unregistered ibv memory")
        self.write(address, data)

    def dma_read(self, address: int, length: int) -> bytes:
        if not self.registered:
            raise MemoryError_("DMA from unregistered ibv memory")
        return self.read(address, length)

    # ------------------------------------------------------------------
    # Remote (one-sided) port — gated by the rkey value the peer
    # presents, as carried on the wire
    # ------------------------------------------------------------------
    def remote_write(self, rkey: int | None, address: int, data: bytes) -> None:
        self._check_rkey(rkey, write=True)
        self.dma_write(address, data)

    def remote_read(self, rkey: int | None, address: int, length: int) -> bytes:
        self._check_rkey(rkey, write=False)
        return self.dma_read(address, length)

    def _check_rkey(self, rkey: int | None, write: bool) -> None:
        if rkey != self.rkey.value:
            raise MemoryError_("rkey does not match this region")
        if write and not self.rkey.remote_write:
            raise MemoryError_("region does not permit remote writes")
        if not write and not self.rkey.remote_read:
            raise MemoryError_("region does not permit remote reads")

    # ------------------------------------------------------------------
    def _offset(self, address: int, length: int) -> int:
        if length < 0:
            raise MemoryError_("negative access length")
        offset = address - self.base
        if offset < 0 or offset + length > self.size:
            raise MemoryError_(
                f"access [{address:#x}, +{length}) outside region "
                f"[{self.base:#x}, +{self.size})"
            )
        return offset

    def contains(self, address: int, length: int = 1) -> bool:
        """True exactly when ``_offset(address, length)`` would not raise."""
        offset = address - self.base
        return length >= 0 and offset >= 0 and offset + length <= self.size
