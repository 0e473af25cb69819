"""Unit tests for the TNIC network stack's ibv memory and its key table (§5.2)."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Cluster, auth_send, rem_read, rem_write
from repro.core.device import RemoteAccessError
from repro.net.packet import RdmaOpcode
from repro.sim import Simulator
from repro.stack import HugePageArea, MemoryError_, RdmaLibrary, WorkRequest
from repro.stack.memory import HUGE_PAGE_BYTES
from repro.stack.rdma_lib import MemoryTable


# ---------------------------------------------------------------------------
# ibv memory
# ---------------------------------------------------------------------------

def test_hugepage_allocation_is_page_aligned():
    area = HugePageArea()
    region = area.allocate(100)
    assert region.size == HUGE_PAGE_BYTES
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
    table = MemoryTable()
    table.add(region)
    region.write(region.base, b"before")
    read = region.read(region.base, 6)
    dma = table.dma_read(region.base, 6, region.rkey)
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


def test_region_for_routes_across_adjacent_regions():
    area = HugePageArea()
    regions = [area.allocate(1) for _ in range(3)]
    assert regions[1].base == regions[0].base + regions[0].size
    assert regions[2].base == regions[1].base + regions[1].size
    table = MemoryTable()
    for region in regions:
        table.add(region)
    for region in regions:
        assert table.local(region.lkey) is region
        last = region.base + region.size
        table.dma_write(last - 8, region.rkey.to_bytes(8, "big"), region.rkey)
        assert table.dma_read(last - 8, 8, region.rkey) == region.rkey.to_bytes(8, "big")
        assert len(table.dma_read(region.base, region.size, region.rkey)) == region.size
    middle = regions[1]
    for address, length, rkey, match in (
            (middle.base - 4, 8, middle.rkey, "outside region"),  # straddles two
            (middle.base, -1, middle.rkey, "negative"),
            (regions[0].base, 1, middle.rkey, "outside region"),  # a neighbour's key
            (middle.base, 1, middle.lkey, "rkey"),                # an lkey is no rkey
            (middle.base, 1, None, "rkey")):
        with pytest.raises(RemoteAccessError, match=match):
            table.dma_read(address, length, rkey)
    with pytest.raises(MemoryError_, match="lkey"):
        table.local(middle.rkey)
    # An empty access at a shared edge lies in both regions, so either
    # region's key is granted it.
    assert table.dma_read(middle.base, 0, middle.rkey) == b""
    assert table.dma_read(middle.base, 0, regions[0].rkey) == b""


# Offsets clustered on the 2 MiB huge-page boundary, plus anywhere in a
# two-huge-page region.
_offsets = st.one_of(st.integers(HUGE_PAGE_BYTES - 300, HUGE_PAGE_BYTES + 300),
                     st.integers(0, 2 * HUGE_PAGE_BYTES - 1))


@settings(max_examples=60, deadline=None)
@given(writes=st.lists(st.tuples(st.sampled_from(["app", "remote"]),
                                 _offsets, st.binary(min_size=1, max_size=600)),
                       max_size=8),
       reads=st.lists(st.tuples(st.sampled_from(["app", "remote"]),
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
        table = MemoryTable()
        table.add(region)
        port_write = {
            "app": region.write,
            "remote": lambda a, d: table.dma_write(a, d, region.rkey)}
        for port, offset, data in writes:
            port_write[port](region.base + offset, data)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()
    assert region.size == 2 * HUGE_PAGE_BYTES
    shadow: dict[int, int] = {}
    for _port, offset, data in writes:
        shadow.update(zip(range(offset, offset + len(data)), data))
    port_read = {"app": region.read,
                 "remote": lambda a, n: table.dma_read(a, n, region.rkey)}
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
    """A post whose lkey names an allocated but unregistered region
    fails with MemoryError_, and nothing reaches the wire."""
    cluster = Cluster(["a", "b"])
    conn, _ = cluster.connect("a", "b")
    cluster.run()
    node = conn.node
    region = node.alloc_mem(1024)  # allocated, never init_lqueue()d
    region.write(region.base, b"x" * 64)
    request = WorkRequest(RdmaOpcode.SEND, conn.qp_number, region.base, 64, region.lkey)
    before = (node.device.stats().tx_packets, cluster.fabric.stats.delivered)
    refused = node.rdma.post(request)
    with pytest.raises(MemoryError_, match="lkey"):
        cluster.run(refused)
    cluster.run()
    assert (node.device.stats().tx_packets, cluster.fabric.stats.delivered) == before
    node.init_lqueue(region)
    assert cluster.run(node.rdma.post(request)).ok


def test_remote_access_gated_by_rkey():
    area = HugePageArea()
    region = area.allocate(1024)
    other = area.allocate(1024)
    table = MemoryTable()
    table.add(region)
    table.dma_write(region.base, b"ok", region.rkey)
    with pytest.raises(RemoteAccessError, match="rkey"):
        table.dma_write(region.base, b"no", other.rkey)
    assert table.dma_read(region.base, 2, region.rkey) == b"ok"


# ---------------------------------------------------------------------------
# The key table against a reference rule
# ---------------------------------------------------------------------------

def _inside(region, address, length):
    offset = address - region.base
    return length >= 0 and offset >= 0 and offset + length <= region.size


def _reference_remote_accepts(registered, address, length, rkey):
    """The range lies inside one registered region whose rkey is the
    presented key.  The scanning table checked the rkey of the *first*
    region holding the range, so it also refused an empty access at the
    edge two adjacent regions share when the key was the later one's."""
    return any(region.rkey == rkey and _inside(region, address, length)
               for region in registered)


def _reference_post_accepts(registered, address, length, lkey):
    return any(region.lkey == lkey and _inside(region, address, length)
               for region in registered)


class _Wire:
    """A device stand-in that records what the library hands it."""

    def __init__(self):
        self.sent = []

    def attach_host_memory(self, table):
        self.table = table

    def send(self, qp_number, payload, opcode, reth, completion, parent):
        self.sent.append(payload)


_FOREIGN_KEY = 0x0BAD


@settings(max_examples=80, deadline=None)
@given(data=st.data(),
       registered_mask=st.lists(st.booleans(), min_size=1, max_size=4))
def test_the_key_table_accepts_exactly_what_the_reference_rule_does(
        data, registered_mask):
    area = HugePageArea()
    regions = [area.allocate(1) for _ in registered_mask]
    registered = [r for r, on in zip(regions, registered_mask) if on]
    wire = _Wire()
    lib = RdmaLibrary(Simulator(), wire)
    table = lib.memory_table
    for region in registered:
        table.add(region)
    keys = [k for r in regions for k in (r.lkey, r.rkey)] + [_FOREIGN_KEY, None]
    accesses = st.tuples(
        st.sampled_from(regions),
        st.sampled_from(["base", "end"]),
        st.integers(-3, 3),
        st.one_of(st.integers(-1, 8), st.just(HUGE_PAGE_BYTES)),
        st.sampled_from(keys))
    for region, edge, delta, length, key in data.draw(
            st.lists(accesses, min_size=1, max_size=12)):
        address = (region.base if edge == "base" else region.base + region.size) + delta
        remote = _reference_remote_accepts(registered, address, length, key)
        try:
            table.dma_read(address, length, key)
            read_ok = True
        except RemoteAccessError:
            read_ok = False
        assert read_ok == remote, (hex(address), length, key)
        if length >= 0:
            try:
                table.dma_write(address, b"w" * length, key)
                write_ok = True
            except RemoteAccessError:
                write_ok = False
            assert write_ok == remote, (hex(address), length, key)
        if any(key == r.lkey for r in regions):  # an lkey is never an rkey
            assert not remote and not read_ok
        sent = len(wire.sent)
        done = lib.post(WorkRequest(RdmaOpcode.SEND, 1, address, length, key))
        posted = not done.triggered
        assert posted == _reference_post_accepts(registered, address, length, key)
        assert len(wire.sent) == sent + posted
        if not posted:
            with pytest.raises(MemoryError_):
                done.value


# ---------------------------------------------------------------------------
# A key is one lookup, however many regions are registered
# ---------------------------------------------------------------------------

class _NoIter(dict):
    def __iter__(self):
        raise AssertionError("the memory table was iterated")

    def values(self):
        raise AssertionError("the memory table was iterated")

    def items(self):
        raise AssertionError("the memory table was iterated")

    def keys(self):
        raise AssertionError("the memory table was iterated")


def test_a_post_a_write_and_a_read_never_iterate_the_table():
    cluster = Cluster(["a", "b"])
    pairs = [cluster.connect("a", "b") for _ in range(16)]
    cluster.run()
    for name in ("a", "b"):
        table = cluster[name].rdma.memory_table
        for attribute, value in vars(table).items():
            if isinstance(value, dict):
                setattr(table, attribute, _NoIter(value))
    conn_a, conn_b = pairs[7]
    assert cluster.run(auth_send(conn_a, b"one post")).ok
    assert cluster.run(rem_write(conn_a, 64, b"one write")).ok
    assert cluster.run(rem_read(conn_a, 64, 9)) == b"one write"
    cluster.run()
    assert [item["payload"] for item in iter(lambda: conn_b.node.rdma.receive(
        conn_b.qp_number), None)] == [b"one post", b"one write"]
    assert conn_b.node.device.stats().remote_access_refusals == 0
