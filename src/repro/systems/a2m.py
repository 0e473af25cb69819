"""Attested Append-Only Memory over TNIC (§7, Appendix C.2, Algorithm 2).

A trusted append-only log: every entry is bound to a monotonically
increasing sequence number by the attestation kernel, so a Byzantine
host cannot equivocate about log contents.  Unlike the original
SGX-hosted A2M, the TNIC version keeps the log in *untrusted* host
memory — the attestations make tampering evident — which is what makes
its lookups as fast as native memory reads (Table 3).

Storage variants:

* ``untrusted`` — plain host memory (SSL-lib, AMD-sev, TNIC rows).
* ``enclave`` — the log lives inside SGX enclave memory and pays EPC
  paging beyond 94 MiB (the SGX-lib row and its 66x lookup slowdown).
"""

from __future__ import annotations

import zlib
from collections.abc import Iterator
from typing import TYPE_CHECKING, Any, Callable

from repro.core.attestation import AttestedMessage
from repro.crypto.hashing import sha256
from repro.sim.instrument import count
from repro.sim.latency import A2M_APPEND_OVERHEAD_US, HOST_MEMORY_LOOKUP_US
from repro.sim.record import Record, record
from repro.tee.base import AttestationProvider
from repro.tee.sgx_memory import EnclaveMemoryModel

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.events import Event

#: 9.3 GiB / 100 M entries (the Table-3 workload) ~ 100 B per entry.
DEFAULT_ENTRY_BYTES = 100

MANIFEST = "MANIFEST"


class A2MError(Exception):
    """Raised on invalid log operations or failed verification."""


@record
class LogEntry(Record):
    """One log entry: (α, i, ctx) plus the cumulative digest option."""

    alpha: AttestedMessage
    sequence: int
    context: bytes
    cumulative_digest: bytes

    def authenticator(self) -> bytes:
        """digest(ctx || i), the TrInc-style authenticator field."""
        return sha256(self.context, self.sequence)


class _Log:
    """One named log with head/tail watermarks."""

    def __init__(self) -> None:
        self.entries: dict[int, LogEntry] = {}
        self.head = 0  # lowest live sequence number
        self.tail = 0  # next sequence number to assign

    def last_digest(self) -> bytes:
        # Entry ``tail - 1`` is always live: truncate's TRNC marker is
        # appended at or above the new head.
        if not self.tail:
            return b"\x00" * 32
        return self.entries[self.tail - 1].cumulative_digest


class A2M:
    """The A2M service bound to one attestation provider."""

    def __init__(
        self,
        provider: AttestationProvider,
        session_id: int,
        storage: str = "untrusted",
        entry_bytes: int = DEFAULT_ENTRY_BYTES,
    ) -> None:
        if storage not in ("untrusted", "enclave"):
            raise ValueError(f"unknown storage mode {storage!r}")
        self.provider = provider
        self.session_id = session_id
        self.storage = storage
        self.entry_bytes = entry_bytes
        self.sim = provider.sim
        self._logs: dict[str, _Log] = {}
        self._enclave = EnclaveMemoryModel() if storage == "enclave" else None

    def _log(self, log_id: str) -> _Log:
        return self._logs.setdefault(log_id, _Log())

    # ------------------------------------------------------------------
    # Algorithm 2 — append
    # ------------------------------------------------------------------
    def append(self, log_id: str, context: bytes) -> "Event":
        """append(id, ctx): attest and append; event value is the entry."""
        done = self.sim.event()
        self._append(log_id, context, done.succeed)
        return done

    def _append(self, log_id: str, context: bytes,
                step: Callable[[LogEntry], Any]) -> None:
        """Attest and append *context*; *step* gets the stored entry."""
        log = self._log(log_id)
        if self.sim.telemetry is not None:
            count(self.sim, "a2m.appends", log=log_id)

        def _finish(message: AttestedMessage) -> None:
            sequence = log.tail
            cumulative = sha256(context, sequence, log.last_digest())
            entry = LogEntry(message, sequence, context, cumulative)
            log.entries[sequence] = entry
            log.tail += 1
            extra = A2M_APPEND_OVERHEAD_US + self._storage_cost(log_id, sequence)
            sim = self.sim
            sim.call_at(sim._now + extra, step, entry)

        self.provider.attest(self.session_id, context, _finish)

    # ------------------------------------------------------------------
    # Algorithm 2 — lookup (no verification; local memory access)
    # ------------------------------------------------------------------
    def lookup(self, log_id: str, index: int) -> "Event":
        """lookup(id, i): fetch the entry without verifying it."""
        log = self._log(log_id)
        if self.sim.telemetry is not None:
            count(self.sim, "a2m.lookups", log=log_id)
        entry = log.entries.get(index)
        if entry is None:
            raise A2MError(
                f"log {log_id!r} has no entry {index} "
                f"(head={log.head}, tail={log.tail})"
            )
        return self.sim.timeout(self._storage_cost(log_id, index), entry)

    def lookup_cost_us(self, log_id: str, index: int) -> float:
        """Analytic per-lookup cost (used by large-scale benchmarks)."""
        return self._storage_cost(log_id, index)

    # ------------------------------------------------------------------
    # Algorithm 2 — verify_lookup
    # ------------------------------------------------------------------
    def verify_lookup(
        self, log_id: str, entry: LogEntry, head: int, tail: int
    ) -> "Event":
        """Check the entry is live and its attestation genuine."""
        if entry.sequence < head or entry.sequence >= tail:
            raise A2MError(
                f"entry {entry.sequence} outside live window [{head}, {tail})"
            )
        done = self.sim.event()

        def _finish(ok: bool) -> None:
            if not ok:
                done.fail(A2MError("entry attestation failed verification"))
            else:
                done.succeed(entry)

        self.provider.check_transferable(self.session_id, entry.alpha, _finish)
        return done

    # ------------------------------------------------------------------
    # Algorithm 2 — truncate
    # ------------------------------------------------------------------
    def truncate(self, log_id: str, head: int, nonce: bytes) -> "Event":
        """truncate(id, head, z): forget entries below *head*.

        Appends a TRNC record to the log, then records the log's last
        attested message in the MANIFEST log, so clients can always
        reconstruct the live boundaries by replaying the MANIFEST.
        """
        if log_id == MANIFEST:
            raise A2MError("cannot truncate the MANIFEST log")
        log = self._log(log_id)
        if head > log.tail:
            raise A2MError(f"cannot truncate beyond tail ({head} > {log.tail})")
        done = self.sim.event()
        marker = b"TRNC|" + log_id.encode() + b"|" + nonce + b"|" + str(head).encode()

        def _after_marker(trnc_entry: LogEntry) -> None:
            # Structured MANIFEST record so clients can replay the
            # state changes: log id, new head, the TRNC marker's
            # sequence number, and a digest binding the marker's α.
            manifest_ctx = b"|".join(
                [
                    b"TRNC-REC",
                    log_id.encode(),
                    str(head).encode(),
                    str(trnc_entry.sequence).encode(),
                    sha256(trnc_entry.alpha.alpha),
                ]
            )
            self._append(MANIFEST, manifest_ctx, _after_manifest)

        def _after_manifest(entry: LogEntry) -> None:
            for sequence in [s for s in log.entries if s < head]:
                del log.entries[sequence]
            log.head = head
            done.succeed(entry)

        self._append(log_id, marker, _after_marker)
        return done

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def bounds(self, log_id: str) -> tuple[int, int]:
        log = self._log(log_id)
        return log.head, log.tail

    def verify_range(self, log_id: str, start: int, end: int) -> bool:
        """Check the cumulative-digest chain over live entries
        [*start*, *end*) — the original A2M authenticator format
        ``c_digest[i] = hash(ctx || sq || c_digest[i-1])``.

        Any in-place rewrite of a context inside the range breaks the
        recomputation and returns False.
        """
        log = self._log(log_id)
        if start < log.head or end > log.tail or start >= end:
            raise A2MError(
                f"range [{start}, {end}) outside live window "
                f"[{log.head}, {log.tail})"
            )
        if start == 0:
            previous = b"\x00" * 32
        elif (before := log.entries.get(start - 1)) is not None:
            previous = before.cumulative_digest
        else:
            # Predecessor truncated: anchor on the first live entry's
            # stored digest (its own integrity is covered by α via
            # verify_lookup) and check the chain from there.
            anchor = log.entries.get(start)
            if anchor is None:
                return False
            previous = anchor.cumulative_digest
            start += 1
        for sequence in range(start, end):
            entry = log.entries.get(sequence)
            if entry is None:
                return False
            expected = sha256(entry.context, sequence, previous)
            if entry.cumulative_digest != expected:
                return False
            previous = entry.cumulative_digest
        return True

    def reconstruct_bounds(self, log_id: str) -> "Event":
        """Client-side boundary recovery via the MANIFEST.

        "To retrieve the boundaries of a log, clients can always attest
        to the tail of the MANIFEST and read backward until they find a
        TRNC entry."  The event resolves with ``(head, tail)``; each
        examined MANIFEST entry is verified (transferable
        authentication), so a Byzantine host cannot fake a truncation.
        """
        done = self.sim.event()
        manifest = self._log(MANIFEST)
        self._read_back(log_id, manifest,
                        iter(sorted(manifest.entries, reverse=True)), done)
        return done

    def _read_back(self, log_id: str, manifest: "_Log",
                   sequences: Iterator[int], done: "Event") -> None:
        """Check the next of the MANIFEST entries *sequences*; settle
        *done* at the first TRNC record of *log_id*, or with head 0."""
        sequence = next(sequences, None)
        if sequence is None:
            return done.succeed((0, self._log(log_id).tail))
        entry = manifest.entries[sequence]

        def _checked(ok: bool) -> None:
            parts = entry.context.split(b"|")
            if not ok:
                done.fail(A2MError(
                    f"MANIFEST entry {sequence} failed verification"))
            elif parts[0] == b"TRNC-REC" and parts[1].decode() == log_id:
                done.succeed((int(parts[2]), self._log(log_id).tail))
            else:
                self._read_back(log_id, manifest, sequences, done)

        self.provider.check_transferable(self.session_id, entry.alpha,
                                         _checked)

    # ------------------------------------------------------------------
    def _storage_cost(self, log_id: str, index: int) -> float:
        """Memory-access cost for entry *index* of *log_id*.

        In the enclave variant each entry is a separate heap allocation
        (the A2M log is a pointer-linked structure inside the enclave),
        so entries land on distinct EPC pages; a scan over a log larger
        than the 94 MiB EPC therefore misses on essentially every
        lookup — the source of Table 3's 66x SGX-lib slowdown.
        """
        if self._enclave is None:
            return HOST_MEMORY_LOOKUP_US
        from repro.tee.sgx_memory import PAGE_BYTES

        stride = max(self.entry_bytes, PAGE_BYTES)
        # Each log gets its own region, placed by the id's bytes: builtin
        # hash() of a str is salted per interpreter, and the EPC model's
        # hit/miss pattern (virtual time) must not depend on it.
        address = (zlib.crc32(log_id.encode()) << 40) + index * stride
        return self._enclave.access(address, self.entry_bytes)
