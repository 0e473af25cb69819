"""Application network buffers: the ibv memory (§5.2).

"the network buffers need to be mapped to a specific TNIC-memory,
called the ibv memory. The ibv memory area is allocated at the
connection creation in the huge page area by the application through
the ibv library. It resides within the application's address space
with full read/write permissions and is eligible for DMA transfers."

:class:`HugePageArea` hands out address ranges; :class:`IbvMemory` is
one region with the lkey and rkey that name it: the lkey for the
host's posts, the rkey for a peer's one-sided accesses.  Keys are the
ints the wire carries.  A region is registered exactly when the
stack's ``MemoryTable`` holds it under those keys.

Ibv memory is demand-zero: a region is a private anonymous mapping, so
registering it reserves address space only.  A page becomes resident
when the application stages into it or the device places into it, and
a byte nobody wrote reads back as zero.  A connection therefore costs
the bytes staged on it, not the size of its windows.
"""

from __future__ import annotations

import itertools
import mmap

HUGE_PAGE_BYTES = 2 * 1024 * 1024


class MemoryError_(Exception):
    """Raised on out-of-bounds or permission-violating memory access."""


class HugePageArea:
    """The process's huge-page arena from which ibv memory is carved."""

    def __init__(self) -> None:
        self._next_address = 0x7F00_0000_0000  # the arena's base address
        self._key_counter = itertools.count(0x1000)

    def allocate(self, size: int) -> "IbvMemory":
        """Carve a hugepage-aligned region of at least *size* bytes."""
        if size <= 0:
            raise MemoryError_(f"allocation size must be positive, got {size}")
        pages = -(-size // HUGE_PAGE_BYTES)
        span = pages * HUGE_PAGE_BYTES
        base = self._next_address
        self._next_address += span
        lkey = next(self._key_counter)
        rkey = next(self._key_counter)
        return IbvMemory(base=base, size=span, lkey=lkey, rkey=rkey)


class IbvMemory:
    """One DMA-eligible memory region and the keys that name it."""

    def __init__(self, base: int, size: int, lkey: int, rkey: int) -> None:
        self.base = base
        self.size = size
        self.lkey = lkey
        self.rkey = rkey
        #: Demand-zero backing: slicing it returns ``bytes`` directly,
        #: the only copy a read makes.
        self._buffer = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)

    def write(self, address: int, data: bytes) -> None:
        offset = self._offset(address, len(data))
        self._buffer[offset : offset + len(data)] = data

    def read(self, address: int, length: int) -> bytes:
        offset = self._offset(address, length)
        return self._buffer[offset : offset + length]

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
