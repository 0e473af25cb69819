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
* :mod:`~repro.crypto.certificates` — signed certificates and chain
  verification used by remote attestation.
"""

from repro.crypto.certificates import Certificate, CertificateError
from repro.crypto.hashing import sha256, sha256_hex
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
from repro.crypto.rsa import RsaKeyPair, RsaPublicKey, generate_keypair

__all__ = [
    "Certificate",
    "CertificateError",
    "HmacEngine",
    "KeyedHmac",
    "RsaKeyPair",
    "RsaPublicKey",
    "VerificationCache",
    "batch_verify",
    "generate_keypair",
    "hmac_sha256",
    "hmac_verify",
    "mac_encoded",
    "reset_verification_cache",
    "reset_verification_cache_counters",
    "sha256",
    "sha256_hex",
    "verification_cache",
    "verification_cache_stats",
    "verify_encoded",
]
