"""A minimal authenticated-encryption channel (the protocol's "TLS").

Once remote attestation succeeds, the IP vendor and the controller
share a session key and exchange the bitstream and secrets over an
authenticated channel.  This module provides that channel: a stream
cipher keyed by HMAC-derived blocks with an encrypt-then-MAC tag —
small, real (tampered ciphertexts genuinely fail), and sufficient for
the symbolic-model guarantees the paper verifies.
"""

from __future__ import annotations

from repro.crypto.hmac_engine import hmac_sha256, hmac_verify
from repro.sim.record import Record, record


class TlsError(Exception):
    """Raised when a sealed record fails authentication."""


@record
class SealedRecord(Record):
    """One encrypted, authenticated message."""

    nonce: int
    ciphertext: bytes
    tag: bytes


def _keystream(key: bytes, nonce: int, length: int) -> bytes:
    blocks = []
    counter = 0
    while sum(len(b) for b in blocks) < length:
        blocks.append(hmac_sha256(key, "stream", nonce, counter))
        counter += 1
    return b"".join(blocks)[:length]


class SecureChannel:
    """Directional pair of seal/open operations under one session key."""

    def __init__(self, session_key: bytes) -> None:
        if len(session_key) < 16:
            raise ValueError("session key too short")
        self._key = session_key
        self._send_nonce = 0
        self._seen_nonces: set[int] = set()

    def seal(self, plaintext: bytes) -> SealedRecord:
        """Encrypt-then-MAC *plaintext* with a fresh nonce."""
        nonce = self._send_nonce
        self._send_nonce += 1
        stream = _keystream(self._key, nonce, len(plaintext))
        ciphertext = bytes(p ^ s for p, s in zip(plaintext, stream))
        tag = hmac_sha256(self._key, "tag", nonce, ciphertext)
        return SealedRecord(nonce=nonce, ciphertext=ciphertext, tag=tag)

    def open(self, record: SealedRecord) -> bytes:
        """Authenticate and decrypt; rejects tampering and nonce reuse."""
        if record.nonce in self._seen_nonces:
            raise TlsError(f"replayed record nonce {record.nonce}")
        if not hmac_verify(
            self._key, record.tag, "tag", record.nonce, record.ciphertext
        ):
            raise TlsError("record failed authentication")
        self._seen_nonces.add(record.nonce)
        stream = _keystream(self._key, record.nonce, len(record.ciphertext))
        return bytes(c ^ s for c, s in zip(record.ciphertext, stream))
