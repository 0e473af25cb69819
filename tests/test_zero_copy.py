"""Zero-copy packet bodies and batched verification (ISSUE 9).

Property under test: a payload that travels as :class:`memoryview`
slices is byte-for-byte the payload — at segmentation, on the wire,
and after reassembly — and anything that differs (type at the digest
boundary, verification outcomes, failure reporting) fails identically
to the all-``bytes`` path.
"""

from __future__ import annotations

import pytest

from repro.core import TnicDevice
from repro.crypto.hashing import canonical_bytes
from repro.crypto.hmac_engine import (
    batch_verify,
    hmac_sha256,
    hmac_verify,
    reset_verification_cache,
    verification_cache_stats,
)
from repro.net import ArpServer, Link, NetworkFault
from repro.net.body import as_view, join, materialize, segment
from repro.roce import QueuePair
from repro.sim import DeterministicRng, Simulator

KEY = b"zero-copy-key-0123456789abcdef!!"
SESSION = 9


def build_pair(fault=None, mtu=512, rng_seed=0):
    sim = Simulator()
    arp = ArpServer()
    a = TnicDevice(sim, 1, "10.0.0.1", "mac-a", arp, trusted=True)
    b = TnicDevice(sim, 2, "10.0.0.2", "mac-b", arp, trusted=True)
    a.roce.path_mtu = mtu
    b.roce.path_mtu = mtu
    Link(sim, a.mac, b.mac, fault=fault, rng=DeterministicRng(rng_seed, "l"))
    a.install_session(SESSION, KEY)
    b.install_session(SESSION, KEY)
    qp_a = QueuePair(qp_number=1, session_id=SESSION,
                     local_ip="10.0.0.1", remote_ip="10.0.0.2")
    qp_b = QueuePair(qp_number=2, session_id=SESSION,
                     local_ip="10.0.0.2", remote_ip="10.0.0.1")
    a.create_qp(qp_a)
    b.create_qp(qp_b)
    a.connect_qp(1, 2)
    b.connect_qp(2, 1)
    return sim, a, b


# ---------------------------------------------------------------- body helpers


def test_as_view_is_zero_copy_and_idempotent():
    buf = b"0123456789"
    view = as_view(buf)
    assert type(view) is memoryview
    assert view.obj is buf          # aliases, doesn't copy
    assert as_view(view) is view    # idempotent


def test_materialize_passes_bytes_through_and_copies_views_once():
    buf = b"abcdef"
    assert materialize(buf) is buf          # no gratuitous copy
    out = materialize(memoryview(buf)[1:4])
    assert type(out) is bytes
    assert out == b"bcd"


def test_join_accepts_mixed_views_and_bytes():
    buf = b"hello world"
    chunks = [memoryview(buf)[:5], b" ", memoryview(buf)[6:]]
    assert join(chunks) == b"hello world"


def test_segment_fast_path_returns_the_payload_itself():
    payload = b"x" * 512
    chunks = segment(payload, 512)
    assert chunks == [payload]
    assert chunks[0] is payload     # no view, no copy for <= MTU


def test_segment_slices_alias_one_buffer_and_reassemble_exactly():
    payload = bytes(range(256)) * 9  # 2304 B
    chunks = segment(payload, 1000)
    assert len(chunks) == 3
    for chunk in chunks:
        assert type(chunk) is memoryview
        assert chunk.obj is payload  # every slice aliases the original
    assert [len(chunk) for chunk in chunks] == [1000, 1000, 304]
    assert join(chunks) == payload


# ----------------------------------------------------- layer-boundary property


def test_wire_segments_equal_payload_slices_at_every_boundary():
    """Tap the link: each in-flight body equals its slice of the
    original payload, and at least one travels as a view."""
    taps: list = []

    def wire_tap(pkt):
        if pkt.payload and pkt.bth.segments > 1:
            taps.append(pkt.payload)
        return None

    sim, a, b = build_pair(fault=NetworkFault(tamper=wire_tap), mtu=512)
    payload = bytes(range(256)) * 7  # 1792 B -> 4 segments
    sim.run(a.send(1, payload))
    sim.run()

    assert any(type(body) is memoryview for body in taps)
    rebuilt = join(taps[:4])
    assert rebuilt == payload
    offset = 0
    for body in taps[:4]:
        assert materialize(body) == payload[offset : offset + len(body)]
        offset += len(body)

    items = b.drain(2)
    assert [item["payload"] for item in items] == [payload]
    # The digest boundary materialized: delivered payload is real bytes.
    assert type(items[0]["payload"]) is bytes
    assert type(items[0]["message"].payload) is bytes


def test_single_segment_messages_stay_bytes_end_to_end():
    taps: list = []

    def wire_tap(pkt):
        if pkt.payload and pkt.trailer is not None:
            taps.append(pkt.payload)
        return None

    sim, a, b = build_pair(fault=NetworkFault(tamper=wire_tap), mtu=1024)
    payload = b"s" * 300
    sim.run(a.send(1, payload))
    sim.run()
    assert taps and all(type(body) is bytes for body in taps)
    assert taps[0] is payload  # zero copies anywhere on the tx path
    assert b.drain(2)[0]["payload"] == payload


# --------------------------------------------------------- failure-path parity


def _run_tampered(mtu, payload, flip_packet_index):
    """Flip the first byte of the N-th data packet; return (delivered,
    failures)."""
    state = {"seen": 0}

    def tamper(pkt):
        # The trailer rides only the LAST segment; count every
        # data-carrying packet so middle segments are reachable.
        if pkt.payload and (pkt.trailer is not None
                            or pkt.bth.segments > 1):
            state["seen"] += 1
            if state["seen"] == flip_packet_index:
                body = materialize(pkt.payload)
                return pkt.with_payload(
                    bytes([body[0] ^ 0xFF]) + body[1:]
                )
        return None

    sim, a, b = build_pair(fault=NetworkFault(tamper=tamper), mtu=mtu)
    sim.run(a.send(1, payload))
    sim.run()
    items = b.drain(2)
    return [item["payload"] for item in items], b.roce.verification_failures


def test_tampered_view_body_fails_and_recovers_like_bytes_body():
    """A corrupted *sliced* body must be detected and reported exactly
    like a corrupted plain-``bytes`` body: >=1 verification failure,
    then go-back-N recovery delivers the genuine payload."""
    payload = b"Z" * 1500
    # bytes path: single-segment message (mtu 2048), tamper packet 1
    delivered_bytes, failures_bytes = _run_tampered(2048, payload, 1)
    # view path: 3 segments (mtu 512), tamper the middle segment
    delivered_views, failures_views = _run_tampered(512, payload, 2)
    assert delivered_bytes == [payload]
    assert delivered_views == [payload]
    assert failures_bytes >= 1
    assert failures_views >= 1


# ------------------------------------------------------------- digest boundary


def test_hashing_refuses_memoryview_loudly():
    with pytest.raises(TypeError, match="digest boundary"):
        canonical_bytes((memoryview(b"leaked view"),))
    with pytest.raises(TypeError, match="materialize"):
        hmac_sha256(KEY, memoryview(b"leaked view"))


# --------------------------------------------------------------- batch_verify


def test_batch_verify_matches_hmac_verify_per_job():
    reset_verification_cache()
    keys = [b"k1" * 16, b"k2" * 16]
    jobs = []
    expected = []
    for index in range(10):
        key = keys[index % 2]
        parts = (b"payload-%d" % index, index, 7, 1)
        mac = hmac_sha256(key, *parts)
        if index % 3 == 0:  # forge every third MAC
            mac = bytes(32)
        jobs.append((key, mac, parts))
        expected.append(index % 3 != 0)
    assert batch_verify(jobs) == expected
    # The serial path agrees job-for-job (and now hits the cache).
    for (key, mac, parts), want in zip(jobs, expected):
        assert hmac_verify(key, mac, *parts) is want
    reset_verification_cache()


def test_batch_verify_populates_the_shared_cache():
    reset_verification_cache()
    key = b"\x11" * 32
    jobs = [
        (key, hmac_sha256(key, b"m%d" % index, index), (b"m%d" % index, index))
        for index in range(8)
    ]
    first = verification_cache_stats()
    assert batch_verify(jobs) == [True] * 8
    after_miss = verification_cache_stats()
    assert after_miss["misses"] - first["misses"] == 8
    assert after_miss["entries"] - first["entries"] == 8
    assert batch_verify(jobs) == [True] * 8   # steady state: all hits
    after_hit = verification_cache_stats()
    assert after_hit["hits"] - after_miss["hits"] == 8
    assert after_hit["misses"] == after_miss["misses"]
    reset_verification_cache()


def test_batch_verify_empty_and_invalid_key():
    assert batch_verify([]) == []
    with pytest.raises(ValueError, match="non-empty bytes"):
        batch_verify([(b"", b"\x00" * 32, (b"m",))])
    with pytest.raises(ValueError, match="non-empty bytes"):
        batch_verify([("not-bytes", b"\x00" * 32, (b"m",))])
