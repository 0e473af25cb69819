"""Cryptographic substrate.

All cryptography in this reproduction is *real* (forged MACs and
signatures actually fail to verify); only the *timing* of hardware
crypto engines is modelled, in :mod:`repro.sim.latency`.

* :mod:`~repro.crypto.hashing` — SHA-256 helpers.
* :mod:`~repro.crypto.hmac_engine` — HMAC-SHA256 keyed once per
  session (:class:`KeyedHmac`), compute/verify over it, plus a
  hardware-pipeline cost model mirroring the attestation kernel's
  byte-serial HMAC unit.
* :mod:`~repro.crypto.rsa` — a compact textbook RSA signature scheme
  (Miller–Rabin keygen, hash-then-sign) standing in for the device /
  controller / IP-vendor key pairs of the bootstrapping protocol (§4.3).
  It serves only the bootstrapping protocol and the clients'
  signatures, so it is imported from its module, not from here.
"""

from repro.crypto.hashing import sha256
from repro.crypto.hmac_engine import (
    HmacEngine,
    KeyedHmac,
    VerificationCache,
    batch_verify,
    hmac_sha256,
    hmac_verify,
    mac_encoded,
    reset_verification_cache,
    reset_verification_cache_counters,
    verification_cache,
    verification_cache_stats,
    verify_encoded,
)

__all__ = [
    "HmacEngine",
    "KeyedHmac",
    "VerificationCache",
    "batch_verify",
    "hmac_sha256",
    "hmac_verify",
    "mac_encoded",
    "reset_verification_cache",
    "reset_verification_cache_counters",
    "sha256",
    "verification_cache",
    "verification_cache_stats",
    "verify_encoded",
]
