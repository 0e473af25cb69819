"""Unit tests for the cryptographic substrate."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import (
    HmacEngine,
    VerificationCache,
    hmac_sha256,
    hmac_verify,
    mac_encoded,
    reset_verification_cache,
    sha256,
    verification_cache_stats,
)
from repro.crypto.rsa import generate_keypair
from repro.crypto.hashing import canonical_bytes
from repro.sim import Simulator

KEY = b"0123456789abcdef0123456789abcdef"


def test_hmac_roundtrip():
    mac = hmac_sha256(KEY, b"hello", 7)
    assert hmac_verify(KEY, mac, b"hello", 7)


def test_hmac_detects_payload_change():
    mac = hmac_sha256(KEY, b"hello", 7)
    assert not hmac_verify(KEY, mac, b"hellO", 7)
    assert not hmac_verify(KEY, mac, b"hello", 8)


def test_hmac_wrong_key_fails():
    mac = hmac_sha256(KEY, b"hello")
    assert not hmac_verify(b"another-key-of-32-bytes-length!!", mac, b"hello")


def test_hmac_requires_key():
    with pytest.raises(ValueError):
        hmac_sha256(b"", b"data")


def test_canonical_encoding_prevents_concat_ambiguity():
    assert canonical_bytes([b"ab", b"c"]) != canonical_bytes([b"a", b"bc"])
    assert sha256("ab", "c") != sha256("a", "bc")


def test_canonical_encoding_types():
    data = canonical_bytes(["s", b"b", 12, True, ["nested", 3]])
    assert isinstance(data, bytes)
    with pytest.raises(TypeError):
        canonical_bytes([3.14])
    # Integers are decimal text whatever their size or sign; booleans,
    # though ints, are one raw byte.
    def prefixed(encoded):
        return len(encoded).to_bytes(8, "big") + encoded

    assert canonical_bytes([-12, 2**70, True, b""]) == b"".join(
        map(prefixed, [b"-12", b"1180591620717411303424", b"\x01", b""]))


def test_hmac_engine_charges_pipeline_time():
    sim = Simulator()
    engine = HmacEngine(sim)
    result = {}
    message = canonical_bytes((b"x" * 100,))

    def left(mac):
        result["mac"] = mac
        result["t"] = sim.now

    engine.occupy(len(message), left, mac_encoded(KEY, message))
    sim.run()
    assert result["mac"] == hmac_sha256(KEY, b"x" * 100)
    assert result["t"] > 0
    assert engine.operations == 1


def test_hmac_engine_serialises_concurrent_ops():
    sim = Simulator()
    engine = HmacEngine(sim)
    finish_times = []
    size = len(canonical_bytes((b"a" * 1000,)))

    engine.occupy(size, lambda _arg: finish_times.append(sim.now), None)
    engine.occupy(size, lambda _arg: finish_times.append(sim.now), None)
    sim.run()
    assert len(finish_times) == 2
    # Second op queues behind the first: roughly double the time.
    assert finish_times[1] == pytest.approx(2 * finish_times[0], rel=0.01)


def test_rsa_sign_verify():
    keys = generate_keypair(seed="test-device")
    sig = keys.sign(b"measurement")
    assert keys.public.verify(b"measurement", sig)
    assert not keys.public.verify(b"tampered", sig)
    assert not keys.public.verify(b"measurement", sig + 1)


def test_rsa_deterministic_from_seed():
    a = generate_keypair(seed=42)
    b = generate_keypair(seed=42)
    c = generate_keypair(seed=43)
    assert a.public == b.public
    assert a.public != c.public


def test_rsa_signature_out_of_range_rejected():
    keys = generate_keypair(seed=1)
    assert not keys.public.verify(b"m", 0)
    assert not keys.public.verify(b"m", keys.public.modulus + 5)


_KEYS = generate_keypair(seed="shared-property-key")


@given(st.binary(min_size=0, max_size=128))
@settings(max_examples=40, deadline=None)
def test_rsa_sign_verify_any_message(message):
    signature = _KEYS.sign(message)
    assert _KEYS.public.verify(message, signature)


@given(st.binary(min_size=1, max_size=64), st.binary(min_size=1, max_size=64))
@settings(max_examples=40, deadline=None)
def test_rsa_signature_not_transferable_between_messages(m1, m2):
    signature = _KEYS.sign(m1)
    assert _KEYS.public.verify(m2, signature) == (m1 == m2)


@given(st.integers(min_value=1, max_value=2**64))
@settings(max_examples=40, deadline=None)
def test_rsa_random_signatures_rejected(candidate):
    assert not _KEYS.public.verify(b"target message", candidate)


def test_rsa_minimum_bits_enforced():
    with pytest.raises(ValueError):
        generate_keypair(bits=128)


def test_rsa_fingerprint_stable():
    assert _KEYS.public.fingerprint() == _KEYS.public.fingerprint()
    assert len(_KEYS.public.fingerprint()) == 16


# ----------------------------------------------------------------------
# Verification cache: wall-clock memoization that can never change a
# security outcome.
# ----------------------------------------------------------------------
def test_verification_cache_hits_on_reverification():
    reset_verification_cache()
    mac = hmac_sha256(KEY, b"forwarded", 3)
    assert hmac_verify(KEY, mac, b"forwarded", 3)
    before = verification_cache_stats()
    # A second receiver re-verifying the identical attested message —
    # the transferable-authentication pattern.
    assert hmac_verify(KEY, mac, b"forwarded", 3)
    after = verification_cache_stats()
    assert after["hits"] == before["hits"] + 1
    reset_verification_cache()


def test_verification_cache_never_stale_for_changed_counter():
    """The negative test from the issue: a warm cache must not leak a
    stale 'valid' verdict to a same-payload message whose counter
    advanced (the equivocation case the counters exist to catch)."""
    reset_verification_cache()
    counter = 7
    mac = hmac_sha256(KEY, b"payload", counter)
    # Warm the cache with the genuine verification.
    assert hmac_verify(KEY, mac, b"payload", counter)
    # Same alpha presented with counter+1 must fail despite the warm
    # cache: the counter is inside the cached message encoding.
    assert not hmac_verify(KEY, mac, b"payload", counter + 1)
    # And both outcomes are themselves deterministic on re-query.
    assert not hmac_verify(KEY, mac, b"payload", counter + 1)
    assert hmac_verify(KEY, mac, b"payload", counter)
    reset_verification_cache()


def test_verification_cache_distinguishes_keys():
    reset_verification_cache()
    other = b"another-key-of-32-bytes-length!!"
    mac = hmac_sha256(KEY, b"data")
    assert hmac_verify(KEY, mac, b"data")
    assert not hmac_verify(other, mac, b"data")
    reset_verification_cache()


def test_verification_cache_lru_bounded():
    cache = VerificationCache(capacity=2)
    cache.store(("k1",), True)
    cache.store(("k2",), True)
    assert cache.lookup(("k1",)) is True  # refresh k1
    cache.store(("k3",), True)  # evicts k2 (least recent)
    assert cache.lookup(("k2",)) is None
    assert cache.lookup(("k1",)) is True
    assert cache.lookup(("k3",)) is True
    assert len(cache) == 2


def test_canonical_memo_distinguishes_bool_from_int():
    # hash(True) == hash(1) and True == 1, but the canonical encodings
    # differ — the memo must key on types, not just values.
    assert canonical_bytes((True,)) != canonical_bytes((1,))
    assert canonical_bytes((1,)) != canonical_bytes((True,))
    assert canonical_bytes(((True,),)) != canonical_bytes(((1,),))
    # And memoized reruns return the identical encoding.
    assert canonical_bytes((True, "x")) == canonical_bytes((True, "x"))
