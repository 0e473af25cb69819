"""Zero-copy packet bodies.

Large RDMA messages are segmented into path-MTU chunks, carried per
hop, reassembled, and finally verified.  Before ISSUE-9 every one of
those steps copied payload bytes (``bytes`` slicing copies); now the
segments are :class:`memoryview` slices over the *one* sender-side
buffer, and actual bytes are produced exactly once per receiver — at
the attestation-digest boundary (:func:`materialize` /
:func:`join`), where the canonical MAC encoding needs real bytes.

Contract enforced downstream: :mod:`repro.crypto.hashing` refuses
memoryviews (``TypeError``), so a view that leaks past the digest
boundary fails loudly instead of silently hashing.

Views alias the sender's buffer; payload bytes are immutable
(``bytes`` objects), so aliasing is safe — retransmissions re-send the
same slice, and receivers cannot mutate the sender's copy.
"""

from __future__ import annotations

from typing import Iterable, Union

#: What a packet body may be anywhere between segmentation and the
#: digest boundary.
Body = Union[bytes, memoryview]


def as_view(data: Body) -> memoryview:
    """A zero-copy view over *data* (idempotent)."""
    if type(data) is memoryview:
        return data
    return memoryview(data)


def materialize(data: Body) -> bytes:
    """Real bytes for *data* — the one sanctioned copy point.

    ``bytes`` passes through untouched (no copy); a view is copied out
    exactly once.  Call this only at the attestation-digest boundary
    (or host-memory placement); everything upstream should stay a view.
    """
    if type(data) is bytes:
        return data
    return bytes(data)


def join(chunks: Iterable[Body]) -> bytes:
    """Reassemble *chunks* (views and/or bytes) into one ``bytes``.

    ``bytes.join`` consumes buffer objects directly, so reassembly is
    a single allocation no matter how many view segments arrived.
    """
    return b"".join(chunks)


def segment(payload: Body, mtu: int) -> list:
    """Split *payload* into <=*mtu* slices of one buffer (>= one chunk).

    The single-chunk case returns the payload itself — no view is
    created, so small messages (the common case) see zero overhead and
    keep their ``bytes`` type end to end.
    """
    size = len(payload)
    if size <= mtu:
        return [payload]
    view = as_view(payload)
    return [
        view[offset : offset + mtu]
        for offset in range(0, size, mtu)
    ]
