"""HMAC-SHA256: the MAC behind TNIC attestation certificates.

Four layers live here:

* :class:`KeyedHmac`, the one HMAC-SHA256 implementation, built on the
  hash core as the FPGA's unit is: a key is absorbed *once* into two
  SHA-256 states (RFC 2104's K^ipad and K^opad blocks) and every MAC
  under it costs two state copies plus the message blocks.  The
  Keystore builds one per installed session, so the attestation
  kernel's data path holds a MAC capability and never key bytes.
* Plain functions over it.  The implementation takes a message that is
  *already canonically encoded* — :meth:`KeyedHmac.mac` and
  :func:`verify_encoded` — because an attested message carries its
  encoding from attest to every check.  Callers that hold only a key
  (bootstrapping, the TLS model) use :func:`mac_encoded`, "key a state,
  MAC once", and :func:`hmac_sha256`, :func:`hmac_verify` and
  :func:`batch_verify`, which encode their parts and call those.
* :class:`VerificationCache`, a wall-clock-only memo of verification
  *outcomes*: transferable authentication means the same attested
  message is re-verified by every receiver it is forwarded to (e.g.
  the head's proof at every chain node), and the check is pure.  The
  cache never touches virtual time — pipelined verification still
  charges full HMAC-pipeline occupancy — and it cannot go stale for a
  "same payload, new counter" message because the counter is inside
  the cached message encoding.  Raw key bytes never enter the cache:
  entries are keyed by a one-way key fingerprint.
* :class:`HmacEngine`, a model of the attestation kernel's hardware
  HMAC unit: one byte-serial pipeline whose occupancy creates queueing
  when many messages contend for it (the reason TNIC latency grows with
  message size, §8.2).  An analytic FIFO server: no process, one
  scheduled call per occupancy.
"""

from __future__ import annotations

import hashlib as _hashlib
from collections import OrderedDict
from hmac import compare_digest
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.crypto.hashing import canonical_bytes
from repro.sim.latency import tnic_hmac_pipeline_us
from repro.sim.resources import SerialServer

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.clock import Simulator


_BLOCK_SIZE = 64  # SHA-256 block, bytes
_IPAD = bytes(byte ^ 0x36 for byte in range(256))
_OPAD = bytes(byte ^ 0x5C for byte in range(256))


class KeyedHmac:
    """HMAC-SHA256 under one key, keyed once (RFC 2104).

    Construction absorbs the key: a key longer than the 64 B block is
    hashed first, the result is zero-padded to the block, and two
    SHA-256 states absorb ``K ^ ipad`` and ``K ^ opad``.  The key bytes
    are not retained — the two states are all a MAC needs, and neither
    gives the key back.  The states are only ever copied, never
    updated, so one instance serves any number of messages.

    ``key_id`` is the key's :meth:`VerificationCache.key_id`, the form
    in which the outcome cache may hold it: a key is represented by its
    absorbed state plus its fingerprint, both derived here, once.
    """

    __slots__ = ("_inner", "_outer", "key_id")

    def __init__(self, key: bytes) -> None:
        if not isinstance(key, bytes) or not key:
            raise ValueError("HMAC key must be non-empty bytes")
        self.key_id = VerificationCache.key_id(key)
        if len(key) > _BLOCK_SIZE:
            key = _hashlib.sha256(key).digest()
        block = key.ljust(_BLOCK_SIZE, b"\0")
        self._inner = _hashlib.sha256(block.translate(_IPAD))
        self._outer = _hashlib.sha256(block.translate(_OPAD))

    def mac(self, encoded: bytes) -> bytes:
        """HMAC-SHA256 of the canonically *encoded* message."""
        inner = self._inner.copy()
        inner.update(encoded)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()


def mac_encoded(key: bytes, message: bytes) -> bytes:
    """HMAC-SHA256 of the canonically encoded *message* under *key*,
    for a caller that holds a key and MACs once with it."""
    return KeyedHmac(key).mac(message)


def hmac_sha256(key: bytes, *parts) -> bytes:
    """HMAC-SHA256 of the canonical encoding of *parts* under *key*."""
    return mac_encoded(key, canonical_bytes(parts))


class VerificationCache:
    """LRU memo of ``(key, message, mac) -> bool`` verification results.

    Entries are keyed by ``(key_id, message, mac)`` where ``key_id`` is
    a domain-separated SHA-256 of the key — the key itself is never
    retained.  Both outcomes are cached: re-presenting a *forged* α is
    exactly as deterministic as re-presenting a valid one.
    """

    __slots__ = ("capacity", "hits", "misses", "_entries")

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[tuple, bool] = OrderedDict()

    @staticmethod
    def key_id(key: bytes) -> bytes:
        """One-way fingerprint of *key* (safe to hold in the cache)."""
        return _hashlib.sha256(b"tnic.verify-cache.v1:" + key).digest()

    def lookup(self, cache_key: tuple) -> bool | None:
        entry = self._entries.get(cache_key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(cache_key)
        self.hits += 1
        return entry

    def store(self, cache_key: tuple, result: bool) -> None:
        entries = self._entries
        entries[cache_key] = result
        if len(entries) > self.capacity:
            entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    def reset_counters(self) -> None:
        """Zero the hit/miss counters but keep the memoized entries.

        Benchmarks call this after a warmup pass so the reported hit
        rate is the steady state, not diluted by the one-time misses of
        session setup and first-touch traffic."""
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
            "entries": len(self._entries),
            "capacity": self.capacity,
        }


#: Process-wide cache used by :func:`hmac_verify`.  Wall-clock-only:
#: virtual-time behaviour is identical with the cache cleared, disabled
#: or full (pinned by tests/test_golden_trace.py).
verification_cache = VerificationCache()


def reset_verification_cache() -> None:
    """Drop all memoized verification results and zero the counters."""
    verification_cache.clear()


def reset_verification_cache_counters() -> None:
    """Zero hit/miss counters only (entries survive; see
    :meth:`VerificationCache.reset_counters`)."""
    verification_cache.reset_counters()


def verification_cache_stats() -> dict:
    """Snapshot of hit/miss counters (for benchmarks and tests)."""
    return verification_cache.stats()


def verify_encoded(state: KeyedHmac, mac: bytes, message: bytes) -> bool:
    """Constant-time comparison of *mac* against the expected MAC of the
    canonically encoded *message* under the key *state* absorbed.

    Results are memoized in :data:`verification_cache`; the counter and
    every other MAC input is part of the cached message encoding, so no
    distinct input can ever hit another input's entry.
    """
    cache_key = (state.key_id, message, mac)
    cached = verification_cache.lookup(cache_key)
    if cached is not None:
        return cached
    result = compare_digest(state.mac(message), mac)
    verification_cache.store(cache_key, result)
    return result


def hmac_verify(key: bytes, mac: bytes, *parts) -> bool:
    """:func:`verify_encoded` of the canonical encoding of *parts*.

    Cold path only (bootstrapping, the TLS model): the key is absorbed
    before the outcome cache is asked, so even a hit pays for keying.
    A caller that verifies more than once under a key holds a
    :class:`KeyedHmac`, as the Keystore does.
    """
    return verify_encoded(KeyedHmac(key), mac, canonical_bytes(parts))


def batch_verify(jobs: Sequence[tuple]) -> list[bool]:
    """:func:`hmac_verify` of each ``(key, mac, parts)`` job, in order."""
    return [hmac_verify(key, mac, *parts) for key, mac, parts in jobs]


class HmacEngine:
    """The attestation kernel's single HMAC pipeline (timing model).

    The real unit processes message bytes serially; concurrent
    attest/verify requests queue.  It is modelled as an analytic FIFO
    server (:class:`~repro.sim.resources.SerialServer`): the occupancy
    of a message is a function of its size alone, so its completion
    instant is known when it is submitted and each occupancy costs one
    scheduled call.  ``operations`` and ``busy_us`` are charged at
    submission, i.e. they count work accepted, not work finished.
    """

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._pipeline = SerialServer(sim)
        self.operations = 0
        self.busy_us = 0.0

    def occupancy_us(self, size_bytes: int) -> float:
        """Pipeline time for a message of *size_bytes*."""
        return tnic_hmac_pipeline_us(size_bytes)

    def occupy(self, size_bytes: int, step: Callable[[Any], Any],
               arg: Any) -> None:
        """Charge pipeline time for a *size_bytes* message (the MAC
        itself is computed where it is needed; only the hardware
        occupancy is timed here); ``step(arg)`` runs when the message
        leaves the pipeline."""
        delay = self.occupancy_us(size_bytes)
        self.operations += 1
        self.busy_us += delay
        self._pipeline.serve(delay, step, arg)
