"""Common interface of attestation providers.

An attestation provider plays the role the paper's "attestation kernel"
plays for one system variant: it generates and verifies attested
messages for the host application, with a latency profile calibrated to
§8.1.  Distributed-system codebases are written once against this
interface and evaluated across all five providers — the methodology of
§8.3.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.core.attestation import AttestationError, AttestationKernel, AttestedMessage
from repro.sim.record import Record, record
from repro.sim.rng import DeterministicRng

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.clock import Simulator


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
    # Operations: each files *step* as one call, charged the sampled
    # latency from *start* (an absolute instant, default now)
    # ------------------------------------------------------------------
    def attest(self, session_id: int, payload: bytes,
               step: Callable[[AttestedMessage], Any],
               start: float | None = None) -> None:
        """Generate an attested message; *step* gets it once charged."""
        self.attest_count += 1
        message = self.kernel.attest(session_id, payload)
        sim = self.sim
        sim.call_at((sim._now if start is None else start)
                    + self.attest_latency_us(len(payload)), step, message)

    def verify(self, session_id: int, message: AttestedMessage,
               step: Callable[[bytes | None, Exception | None], Any]) -> None:
        """Verify continuity + authenticity once charged, then call
        ``step(payload, None)``, or ``step(None, error)`` with the
        :class:`AttestationError` raised."""
        self.verify_count += 1
        sim = self.sim
        sim.call_at(sim._now + self.attest_latency_us(len(message.payload)),
                    self._settle, (session_id, message, step))

    def _settle(self, pending: tuple) -> None:
        """The step of a :meth:`verify`: check, then hand on the outcome."""
        session_id, message, step = pending
        try:
            payload = self.kernel.verify(session_id, message)
        except AttestationError as exc:
            return step(None, exc)
        step(payload, None)

    def check_transferable(self, session_id: int, message: AttestedMessage,
                           step: Callable[[bool], Any],
                           start: float | None = None) -> None:
        """Transferable-authentication check (no counter mutation):
        *step* gets the MAC verdict once charged."""
        delay = self.attest_latency_us(len(message.payload))
        ok = self.kernel.check_transferable(session_id, message)
        sim = self.sim
        sim.call_at((sim._now if start is None else start) + delay, step, ok)
