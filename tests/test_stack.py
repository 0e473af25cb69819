"""Unit tests for the TNIC network stack's ibv memory (§5.2)."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stack import HugePageArea, IbvMemory, MemoryError_
from repro.stack.memory import HUGE_PAGE_BYTES, RdmaKey
from repro.stack.rdma_lib import MemoryTable


# ---------------------------------------------------------------------------
# ibv memory
# ---------------------------------------------------------------------------

def test_hugepage_allocation_is_page_aligned():
    area = HugePageArea()
    region = area.allocate(100)
    assert region.size == HUGE_PAGE_BYTES
    assert area.allocated_bytes == HUGE_PAGE_BYTES
    big = area.allocate(HUGE_PAGE_BYTES + 1)
    assert big.size == 2 * HUGE_PAGE_BYTES
    assert big.base >= region.base + region.size


def test_allocation_rejects_nonpositive_size():
    with pytest.raises(MemoryError_):
        HugePageArea().allocate(0)


def test_memory_read_write_roundtrip():
    region = HugePageArea().allocate(1024)
    region.write(region.base + 10, b"hello")
    assert region.read(region.base + 10, 5) == b"hello"


def test_memory_read_is_a_snapshot():
    region = HugePageArea().allocate(1024)
    region.register()
    region.write(region.base, b"before")
    read = region.read(region.base, 6)
    dma = region.dma_read(region.base, 6)
    region.write(region.base, b"after!")
    # A send in flight holds what it fetched: a later write to the
    # region (the application reusing its buffer) must not reach it.
    assert type(read) is bytes and type(dma) is bytes
    assert read == dma == b"before"
    assert region.read(region.base, 6) == b"after!"


def test_memory_bounds_checked():
    region = HugePageArea().allocate(1024)
    with pytest.raises(MemoryError_):
        region.read(region.base - 1, 4)
    with pytest.raises(MemoryError_):
        region.write(region.base + region.size - 2, b"xxxx")
    assert not region.contains(region.base - 1)
    assert region.contains(region.base, region.size)


def _offset_accepts(region, address, length):
    try:
        region._offset(address, length)
    except MemoryError_:
        return False
    return True


def test_contains_is_exactly_where_offset_does_not_raise():
    region = IbvMemory(base=0x1000, size=64,
                       lkey=RdmaKey(1, 0x1000), rkey=RdmaKey(2, 0x1000))
    end = region.base + region.size
    addresses = (0, region.base - 1, region.base, region.base + 1,
                 end - 1, end, end + 1)
    for address in addresses:
        room = end - address
        for length in (-1, 0, 1, 8, room - 1, room, room + 1,
                       region.size, region.size + 1):
            assert region.contains(address, length) == _offset_accepts(
                region, address, length), (address, length)
    assert region.contains(end, 0)  # an empty access at one-past-end
    assert not region.contains(region.base, -1)


def test_region_for_routes_across_adjacent_regions():
    area = HugePageArea()
    regions = [area.allocate(1) for _ in range(3)]
    assert regions[1].base == regions[0].base + regions[0].size
    assert regions[2].base == regions[1].base + regions[1].size
    table = MemoryTable()
    for region in regions:
        table.add(region)
    for region in regions:
        last = region.base + region.size
        assert table.region_for(region.base, 1) is region
        assert table.region_for(last - 8, 8) is region
        assert table.region_for(region.base, region.size) is region
    for address, length in ((regions[0].base - 1, 1),
                            (regions[2].base + regions[2].size, 1),
                            (regions[1].base - 4, 8),  # straddles two
                            (regions[1].base, -1)):
        with pytest.raises(MemoryError_, match="not in registered"):
            table.region_for(address, length)


# Offsets clustered on the 2 MiB huge-page boundary, plus anywhere in a
# two-huge-page region.
_offsets = st.one_of(st.integers(HUGE_PAGE_BYTES - 300, HUGE_PAGE_BYTES + 300),
                     st.integers(0, 2 * HUGE_PAGE_BYTES - 1))


@settings(max_examples=60, deadline=None)
@given(writes=st.lists(st.tuples(st.sampled_from(["app", "dma", "remote"]),
                                 _offsets, st.binary(min_size=1, max_size=600)),
                       max_size=8),
       reads=st.lists(st.tuples(st.sampled_from(["app", "dma", "remote"]),
                                _offsets, st.integers(0, 700)),
                      max_size=8))
def test_a_region_reads_zeros_where_unwritten_and_the_bytes_where_written(
        writes, reads):
    writes = [(port, offset, data[:2 * HUGE_PAGE_BYTES - offset])
              for port, offset, data in writes]
    # Demand-zero: allocating the 4 MiB region and staging into it
    # allocates nothing near the region's size.
    tracemalloc.start()
    try:
        region = HugePageArea().allocate(HUGE_PAGE_BYTES + 1)
        region.register()
        port_write = {
            "app": region.write, "dma": region.dma_write,
            "remote": lambda a, d: region.remote_write(region.rkey.value, a, d)}
        for port, offset, data in writes:
            port_write[port](region.base + offset, data)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()
    assert region.size == 2 * HUGE_PAGE_BYTES
    shadow: dict[int, int] = {}
    for _port, offset, data in writes:
        shadow.update(zip(range(offset, offset + len(data)), data))
    port_read = {"app": region.read, "dma": region.dma_read,
                 "remote": lambda a, n: region.remote_read(region.rkey.value, a, n)}
    # Every write read back whole, the boundary read across, and the
    # drawn windows: each byte is the last one written there, else zero.
    windows = [(port, offset, len(data)) for port, offset, data in writes]
    windows += [("app", HUGE_PAGE_BYTES - 64, 128)] + reads
    for port, offset, length in windows:
        length = min(length, region.size - offset)
        expected = bytes(shadow.get(i, 0)
                         for i in range(offset, offset + length))
        assert port_read[port](region.base + offset, length) == expected


def test_dma_requires_registration():
    region = HugePageArea().allocate(1024)
    with pytest.raises(MemoryError_):
        region.dma_write(region.base, b"x")
    region.register()
    region.dma_write(region.base, b"x")
    assert region.dma_read(region.base, 1) == b"x"


def test_remote_access_gated_by_rkey():
    area = HugePageArea()
    region = area.allocate(1024)
    other = area.allocate(1024)
    region.register()
    region.remote_write(region.rkey.value, region.base, b"ok")
    with pytest.raises(MemoryError_, match="rkey"):
        region.remote_write(other.rkey.value, region.base, b"no")
    assert region.remote_read(region.rkey.value, region.base, 2) == b"ok"
