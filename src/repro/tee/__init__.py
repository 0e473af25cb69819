"""TEE / host-side attestation baselines (Table 2, §8.1).

The paper compares TNIC's Attest() against four host-sided systems:
OpenSSL running natively as a library (SSL-lib) or as a separate server
process (SSL-server, on Intel or AMD), and the same server inside a TEE
(SGX via SCONE, AMD SEV in a QEMU VM).  §8.3 then drives the four
distributed systems with a library "that accurately emulates all
latencies (measured in §8.1) within the CPU" — exactly what this
package provides.

All providers perform *real* HMAC attestation (through a real
:class:`~repro.core.attestation.AttestationKernel`), differing only in
their calibrated latency profiles and security properties.
:mod:`~repro.tee.sgx_memory`, the enclave page-cache model behind A2M's
enclave logs, is imported from its module, not from here.
"""

from repro.tee.base import AttestationProvider, ProviderProperties
from repro.tee.providers import (
    PROVIDER_FACTORIES,
    SevProvider,
    SgxLibProvider,
    SgxProvider,
    SslLibProvider,
    SslServerProvider,
    TnicProvider,
    make_provider,
)

__all__ = [
    "AttestationProvider",
    "PROVIDER_FACTORIES",
    "ProviderProperties",
    "SevProvider",
    "SgxLibProvider",
    "SgxProvider",
    "SslLibProvider",
    "SslServerProvider",
    "TnicProvider",
    "make_provider",
]
