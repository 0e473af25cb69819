"""The five attestation providers of the evaluation (§8.1/§8.3).

Latency profiles (constants in :mod:`repro.sim.latency`):

=============  ==========================================================
SSL-lib        native in-process OpenSSL call (~1 µs); not tamper-proof.
SSL-server     native OpenSSL server behind loopback TCP; Intel ~18 µs,
               AMD ~27.6 µs (TNIC is "approximately 1.2x faster").
SGX            SCONE server: comm + >30x HMAC overhead (~46 µs) plus
               SCONE scheduling spikes of 200-500 µs (Figure 7).
SGX-lib        in-enclave library call, 2x SSL-lib (Table 3).
AMD-sev        OpenSSL server in a SEV QEMU VM; mean ~55 µs, lower
               bound 30 µs (used by the §8.3 emulation), same spikes.
TNIC           the hardware attestation kernel: 23 µs synchronous,
               ~6 µs with asynchronous user-space DMA (§8.1 / Table 3).
=============  ==========================================================
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim import latency as cal
from repro.sim.rng import DeterministicRng
from repro.tee.base import AttestationProvider, ProviderProperties

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.clock import Simulator

#: Per-byte cost of a native HMAC over the message (ns-scale; OpenSSL
#: with AES-NI/SHA extensions processes ~2 GB/s).
_NATIVE_HMAC_PER_BYTE_US = 0.0005
#: The same computation inside a TEE runs >30x slower (§8.1).
_TEE_HMAC_PER_BYTE_US = _NATIVE_HMAC_PER_BYTE_US * 30.0


class SslLibProvider(AttestationProvider):
    """Native OpenSSL as an in-process library (no tamper-proofing)."""

    properties = ProviderProperties("ssl-lib", host_tee_free=True, tamper_proof=False)

    def attest_latency_us(self, size_bytes: int) -> float:
        base = cal.SSL_LIB_ATTEST_US + _NATIVE_HMAC_PER_BYTE_US * size_bytes
        return self.rng.lognormal_jitter(base, sigma=0.05)


class SslServerProvider(AttestationProvider):
    """Native OpenSSL server behind loopback TCP sockets."""

    properties = ProviderProperties(
        "ssl-server", host_tee_free=True, tamper_proof=False
    )

    def __init__(self, sim, device_id, rng=None, arch: str = "intel") -> None:
        super().__init__(sim, device_id, rng)
        if arch not in ("intel", "amd"):
            raise ValueError(f"unknown arch {arch!r}")
        self.arch = arch

    def attest_latency_us(self, size_bytes: int) -> float:
        if self.arch == "intel":
            base = cal.SSL_SERVER_INTEL_ATTEST_US
        else:
            base = cal.SSL_SERVER_AMD_ATTEST_US
        base += _NATIVE_HMAC_PER_BYTE_US * size_bytes
        return self.rng.lognormal_jitter(base, sigma=0.08)


class SgxProvider(AttestationProvider):
    """SCONE-based SGX server (tamper-proof, spiky — Figure 7)."""

    properties = ProviderProperties("sgx", host_tee_free=False, tamper_proof=True)

    def __init__(self, sim, device_id, rng=None, empty_body: bool = False) -> None:
        super().__init__(sim, device_id, rng)
        #: SGX-empty control of Figure 7: enclave call without the HMAC.
        self.empty_body = empty_body

    def attest_latency_us(self, size_bytes: int) -> float:
        if self.empty_body:
            base = cal.SGX_EMPTY_US
        else:
            base = cal.SGX_ATTEST_US + _TEE_HMAC_PER_BYTE_US * size_bytes
        sample = self.rng.lognormal_jitter(base, sigma=0.10)
        if not self.empty_body and self.rng.chance(cal.SGX_SPIKE_PROBABILITY):
            sample += self.rng.uniform(*cal.SGX_SPIKE_RANGE_US)
        return sample


class SgxLibProvider(AttestationProvider):
    """In-enclave library attest (A2M's SGX-lib baseline, Table 3)."""

    properties = ProviderProperties("sgx-lib", host_tee_free=False, tamper_proof=True)

    def attest_latency_us(self, size_bytes: int) -> float:
        base = cal.SGX_LIB_ATTEST_US + _TEE_HMAC_PER_BYTE_US * size_bytes
        return self.rng.lognormal_jitter(base, sigma=0.05)


class SevProvider(AttestationProvider):
    """OpenSSL server inside an AMD SEV QEMU VM."""

    properties = ProviderProperties("amd-sev", host_tee_free=False, tamper_proof=True)

    def __init__(self, sim, device_id, rng=None, lower_bound: bool = False) -> None:
        super().__init__(sim, device_id, rng)
        #: §8.3 emulation uses the 30 µs lower bound, not the mean.
        self.lower_bound = lower_bound

    def attest_latency_us(self, size_bytes: int) -> float:
        size_cost = _TEE_HMAC_PER_BYTE_US * size_bytes
        if self.lower_bound:
            return cal.AMD_SEV_ATTEST_LOWER_US + size_cost
        spread = cal.AMD_SEV_ATTEST_MEAN_US - cal.AMD_SEV_ATTEST_LOWER_US
        sample = cal.AMD_SEV_ATTEST_LOWER_US + self.rng.expovariate(1.0 / spread)
        if self.rng.chance(cal.SEV_SPIKE_PROBABILITY):
            sample += self.rng.uniform(*cal.SEV_SPIKE_RANGE_US)
        return sample + size_cost


class TnicProvider(AttestationProvider):
    """The TNIC hardware attestation kernel.

    ``synchronous=True`` reproduces the §8.1 stand-alone measurement
    (23 µs dominated by the PCIe transfer); the default asynchronous
    mode is the ~6 µs figure used by the §8.3 system evaluation.
    """

    properties = ProviderProperties("tnic", host_tee_free=True, tamper_proof=True)

    def __init__(self, sim, device_id, rng=None, synchronous: bool = False) -> None:
        super().__init__(sim, device_id, rng)
        self.synchronous = synchronous
        #: The size-independent term, added to the HMAC term per sample
        #: in this association so every sample is bit-identical to
        #: ``fixed + (base + per_byte * size)`` computed in one line.
        if synchronous:
            self._fixed_us = cal.TNIC_PCIE_TRANSFER_US + cal.TNIC_GLUE_US
        else:
            self._fixed_us = cal.TNIC_ASYNC_FIXED_US

    def attest_latency_us(self, size_bytes: int) -> float:
        return self.rng.lognormal_jitter(
            self._fixed_us
            + (cal.TNIC_HMAC_BASE_US + cal.TNIC_HMAC_PER_BYTE_US * size_bytes),
            0.02)


PROVIDER_FACTORIES = {
    "ssl-lib": SslLibProvider,
    "ssl-server": SslServerProvider,
    "sgx": SgxProvider,
    "sgx-lib": SgxLibProvider,
    "amd-sev": SevProvider,
    "tnic": TnicProvider,
}


def make_provider(
    name: str,
    sim: "Simulator",
    device_id: int,
    seed: int = 0,
    **kwargs,
) -> AttestationProvider:
    """Instantiate a provider by its evaluation name."""
    try:
        factory = PROVIDER_FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown provider {name!r}; expected one of "
            f"{sorted(PROVIDER_FACTORIES)}"
        ) from None
    rng = DeterministicRng(seed, f"provider/{name}/{device_id}")
    return factory(sim, device_id, rng, **kwargs)
