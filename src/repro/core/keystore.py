"""The Keystore component of the attestation kernel (§4.1).

"The system designer initializes each TNIC device during bootstrapping
with a unique identifier (ID) and a shared secret key — ideally, one
shared key for each session — stored in static memory (Keystore). The
keys are shared and, hence, unknown to the untrusted parties."

The store is written exactly once per session (at bootstrapping /
connection setup) and read only by the attestation kernel; the host
software never sees key material through any public API.
"""

from __future__ import annotations

from repro.crypto.hmac_engine import VerificationCache


class KeystoreError(Exception):
    """Raised on invalid keystore operations."""


class Keystore:
    """Static per-session key memory inside the trusted hardware."""

    def __init__(self, device_id: int) -> None:
        if device_id < 0:
            raise ValueError("device_id must be >= 0")
        self.device_id = device_id
        self._session_keys: dict[int, bytes] = {}
        #: session -> one-way fingerprint of its key, the form in which
        #: the verification cache may hold it; derived once, here,
        #: because the key never changes.
        self._key_ids: dict[int, bytes] = {}

    def install(self, session_id: int, key: bytes) -> None:
        """Burn a session key; rewriting an existing session is refused."""
        if session_id < 0:
            raise KeystoreError(f"invalid session id {session_id}")
        if not isinstance(key, bytes) or len(key) < 16:
            raise KeystoreError("session keys must be >= 16 bytes")
        if session_id in self._session_keys:
            raise KeystoreError(
                f"session {session_id} already has a key installed; "
                "keys are static memory and cannot be replaced"
            )
        self._session_keys[session_id] = key
        self._key_ids[session_id] = VerificationCache.key_id(key)

    def key_for(self, session_id: int) -> bytes:
        """Fetch the key for *session_id* (attestation kernel only)."""
        try:
            return self._session_keys[session_id]
        except KeyError:
            raise KeystoreError(f"no key installed for session {session_id}") from None

    def key_id_for(self, session_id: int) -> bytes:
        """The installed key's :meth:`VerificationCache.key_id`."""
        try:
            return self._key_ids[session_id]
        except KeyError:
            raise KeystoreError(f"no key installed for session {session_id}") from None

    def has_session(self, session_id: int) -> bool:
        return session_id in self._session_keys

    def sessions(self) -> list[int]:
        """Installed session ids (key material is never exposed)."""
        return sorted(self._session_keys)

    def __len__(self) -> int:
        return len(self._session_keys)
