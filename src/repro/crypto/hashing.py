"""SHA-256 helpers used across the repository.

A single canonical encoding keeps hashes stable across modules: byte
strings pass through, text is UTF-8 encoded, integers are rendered in
decimal, and sequences are length-prefixed to prevent concatenation
ambiguity (so ``hash(["ab", "c"]) != hash(["a", "bc"])``)."""

from __future__ import annotations

import hashlib
from struct import Struct
from typing import Any, Iterable

DIGEST_SIZE = 32

#: The 8-byte big-endian length prefix of every encoded part, for the
#: fixed encoders that build one shape of :func:`canonical_bytes` output
#: from precomputed parts.
length_prefix = Struct(">Q").pack


def _encode(part: Any) -> bytes:
    if isinstance(part, bytes):
        return part
    if isinstance(part, memoryview):
        # Zero-copy packet bodies must be materialized *before* the
        # digest boundary (repro.net.body.materialize); hashing a view
        # here would hide a copy the perf accounting should see.
        raise TypeError(
            "memoryview reached the digest boundary — call "
            "repro.net.body.materialize() on packet bodies first"
        )
    if isinstance(part, str):
        return part.encode("utf-8")
    if isinstance(part, bool):
        return b"\x01" if part else b"\x00"
    if isinstance(part, int):
        return str(part).encode("ascii")
    if isinstance(part, (list, tuple)):
        return canonical_bytes(part)
    raise TypeError(f"cannot hash value of type {type(part).__name__}")


def canonical_bytes(parts: Iterable[Any]) -> bytes:
    """Length-prefixed canonical encoding of a sequence of parts."""
    chunks: list[bytes] = []
    for part in parts:
        # The two part types a MAC input is made of are encoded in
        # line; `type(True) is bool`, so booleans still reach _encode.
        kind = type(part)
        if kind is int:
            part = b"%d" % part
        elif kind is not bytes:
            part = _encode(part)
        chunks.append(len(part).to_bytes(8, "big"))
        chunks.append(part)
    return b"".join(chunks)


def sha256(*parts: Any) -> bytes:
    """SHA-256 over the canonical encoding of *parts*."""
    return hashlib.sha256(canonical_bytes(parts)).digest()
