"""The Keystore component of the attestation kernel (§4.1).

"The system designer initializes each TNIC device during bootstrapping
with a unique identifier (ID) and a shared secret key — ideally, one
shared key for each session — stored in static memory (Keystore). The
keys are shared and, hence, unknown to the untrusted parties."

The store is written exactly once per session (at bootstrapping /
connection setup) and read only by the attestation kernel; the host
software never sees key material through any public API.

Nor does the kernel, after the write: what the HMAC unit needs of a
key is its two absorbed SHA-256 states
(:class:`~repro.crypto.hmac_engine.KeyedHmac`), so ``install`` derives
those once and keeps them — the static memory holds a MAC capability
per session, no key bytes, and nothing here can hand a key back.
"""

from __future__ import annotations

from repro.crypto.hmac_engine import KeyedHmac, VerificationCache


class KeystoreError(Exception):
    """Raised on invalid keystore operations."""


class Keystore:
    """Static per-session key memory inside the trusted hardware."""

    def __init__(self, device_id: int) -> None:
        if device_id < 0:
            raise ValueError("device_id must be >= 0")
        self.device_id = device_id
        #: session -> its key, absorbed: every Attest/Verify of the
        #: session MACs through this one state.
        self._macs: dict[int, KeyedHmac] = {}
        #: session -> one-way fingerprint of its key, the form in which
        #: the verification cache may hold it.  Both are derived once,
        #: here, because the key never changes.
        self._key_ids: dict[int, bytes] = {}

    def install(self, session_id: int, key: bytes) -> None:
        """Burn a session key; rewriting an existing session is refused."""
        if session_id < 0:
            raise KeystoreError(f"invalid session id {session_id}")
        if not isinstance(key, bytes) or len(key) < 16:
            raise KeystoreError("session keys must be >= 16 bytes")
        if session_id in self._macs:
            raise KeystoreError(
                f"session {session_id} already has a key installed; "
                "keys are static memory and cannot be replaced"
            )
        self._macs[session_id] = KeyedHmac(key)
        self._key_ids[session_id] = VerificationCache.key_id(key)

    def mac_for(self, session_id: int) -> KeyedHmac:
        """The keyed HMAC state of *session_id* (attestation kernel only)."""
        try:
            return self._macs[session_id]
        except KeyError:
            raise KeystoreError(f"no key installed for session {session_id}") from None

    def key_id_for(self, session_id: int) -> bytes:
        """The installed key's :meth:`VerificationCache.key_id`."""
        try:
            return self._key_ids[session_id]
        except KeyError:
            raise KeystoreError(f"no key installed for session {session_id}") from None

    def has_session(self, session_id: int) -> bool:
        return session_id in self._macs

    def sessions(self) -> list[int]:
        """Installed session ids (key material is never exposed)."""
        return sorted(self._macs)

    def __len__(self) -> int:
        return len(self._macs)
