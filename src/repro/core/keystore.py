"""The Keystore component of the attestation kernel (§4.1).

"The system designer initializes each TNIC device during bootstrapping
with a unique identifier (ID) and a shared secret key — ideally, one
shared key for each session — stored in static memory (Keystore). The
keys are shared and, hence, unknown to the untrusted parties."

The store is written exactly once per session (at bootstrapping /
connection setup) and read only by the attestation kernel; the host
software never sees key material through any public API.

Nor does the kernel, after the write: what the HMAC unit needs of a
key is its two absorbed SHA-256 states and, for the outcome cache, its
one-way fingerprint (:class:`~repro.crypto.hmac_engine.KeyedHmac` holds
both), so ``install`` derives those once and keeps them — the static
memory holds a MAC capability per session, no key bytes, and nothing
here can hand a key back.  The capability forges an α as well as the
key would, so it is as confined as the key was: ``mac_for`` and
``_session_macs`` are key-tagged taint sources (``analysis/taint.py``).
"""

from __future__ import annotations

from repro.crypto.hmac_engine import KeyedHmac


class KeystoreError(Exception):
    """Raised on invalid keystore operations."""


class Keystore:
    """Static per-session key memory inside the trusted hardware."""

    def __init__(self, device_id: int) -> None:
        if device_id < 0:
            raise ValueError("device_id must be >= 0")
        self.device_id = device_id
        #: session -> its key, absorbed: every Attest/Verify of the
        #: session MACs through this one state, derived once because
        #: the key never changes.
        self._session_macs: dict[int, KeyedHmac] = {}

    def install(self, session_id: int, key: bytes) -> None:
        """Burn a session key; rewriting an existing session is refused."""
        if session_id < 0:
            raise KeystoreError(f"invalid session id {session_id}")
        if not isinstance(key, bytes) or len(key) < 16:
            raise KeystoreError("session keys must be >= 16 bytes")
        if session_id in self._session_macs:
            raise KeystoreError(
                f"session {session_id} already has a key installed; "
                "keys are static memory and cannot be replaced"
            )
        self._session_macs[session_id] = KeyedHmac(key)

    def mac_for(self, session_id: int) -> KeyedHmac:
        """The keyed HMAC state of *session_id* (attestation kernel only)."""
        try:
            return self._session_macs[session_id]
        except KeyError:
            raise KeystoreError(f"no key installed for session {session_id}") from None

    def has_session(self, session_id: int) -> bool:
        return session_id in self._session_macs

    def sessions(self) -> list[int]:
        """Installed session ids (key material is never exposed)."""
        return sorted(self._session_macs)

    def __len__(self) -> int:
        return len(self._session_macs)
