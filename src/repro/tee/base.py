"""Common interface of attestation providers.

An attestation provider plays the role the paper's "attestation kernel"
plays for one system variant: it generates and verifies attested
messages for the host application, with a latency profile calibrated to
§8.1.  Distributed-system codebases are written once against this
interface and evaluated across all five providers — the methodology of
§8.3.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.attestation import AttestationError, AttestationKernel, AttestedMessage
from repro.sim.events import Timeout
from repro.sim.record import Record, record
from repro.sim.rng import DeterministicRng

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.clock import Simulator
    from repro.sim.events import Event


@record
class ProviderProperties(Record):
    """Security properties of a baseline (Table 2)."""

    name: str
    host_tee_free: bool
    tamper_proof: bool


class AttestationProvider:
    """Base class: real attestation + calibrated latency."""

    properties: ProviderProperties

    def __init__(
        self,
        sim: "Simulator",
        device_id: int,
        rng: DeterministicRng | None = None,
    ) -> None:
        self.sim = sim
        self.kernel = AttestationKernel(device_id)
        self.rng = rng or DeterministicRng(device_id, "provider")
        self.attest_count = 0
        self.verify_count = 0

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def install_session(self, session_id: int, key: bytes) -> None:
        self.kernel.install_session(session_id, key)

    @property
    def device_id(self) -> int:
        return self.kernel.device_id

    # ------------------------------------------------------------------
    # Latency model — overridden per provider
    # ------------------------------------------------------------------
    def attest_latency_us(self, size_bytes: int) -> float:
        """One sampled Attest() latency for a *size_bytes* message.

        Verify() and the transferable check charge a sample of the same
        distribution ("The latency of Verify() is similar", §8.1): every
        timed operation below draws exactly one sample from the
        provider's stream.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def attest(self, session_id: int, payload: bytes,
               start: float | None = None) -> "Event":
        """Generate an attested message, charging the sampled latency
        from *start* (an absolute instant, default now)."""
        self.attest_count += 1
        message = self.kernel.attest(session_id, payload)
        return Timeout(self.sim, self.attest_latency_us(len(payload)),
                       message, start)

    def verify(self, session_id: int, message: AttestedMessage) -> "Event":
        """Verify continuity + authenticity, charging the latency.

        The event value is the payload; verification failures fail the
        event with the underlying :class:`AttestationError`: the event
        is the latency timeout, its outcome set by :meth:`_settle`.
        """
        self.verify_count += 1
        check = Timeout(self.sim, self.attest_latency_us(len(message.payload)),
                        (session_id, message))
        check.callbacks.append(self._settle)
        return check

    def _settle(self, check: "Event") -> None:
        """First callback of a :meth:`verify` event: set its outcome."""
        session_id, message = check._value
        try:
            check._value = self.kernel.verify(session_id, message)
        except AttestationError as exc:
            check._exception = exc

    def check_transferable(self, session_id: int, message: AttestedMessage,
                           start: float | None = None) -> "Event":
        """Transferable-authentication check (no counter mutation),
        charged from *start* as :meth:`attest` is."""
        delay = self.attest_latency_us(len(message.payload))
        ok = self.kernel.check_transferable(session_id, message)
        return Timeout(self.sim, delay, ok, start)
