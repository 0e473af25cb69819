"""The TNIC hardware architecture (§4) — the paper's primary contribution.

* :mod:`~repro.core.keystore` — per-session shared secret keys burnt in
  at bootstrapping.
* :mod:`~repro.core.counters` — the Counters store: monotonically,
  deterministically increasing send/receive counters per session.
* :mod:`~repro.core.attestation` — the attestation kernel implementing
  Algorithm 1 (``Attest()`` / ``Verify()``), the minimal TCB that yields
  transferable authentication and non-equivocation.
* :mod:`~repro.core.dma` — the PCIe XDMA engine moving payloads between
  host memory and the NIC datapath.
* :mod:`~repro.core.device` — :class:`TnicDevice`, wiring the attestation
  kernel into the RoCE datapath per Figure 2.
* :mod:`~repro.core.resources` — the FPGA resource-usage model behind
  Table 5 and Figure 13, imported from its module, not from here: no
  simulated run uses it.
"""

from repro.core.attestation import (
    AttestationError,
    AttestationKernel,
    AttestedMessage,
    ContinuityError,
    MacMismatchError,
    UnknownSessionError,
)
from repro.core.counters import CounterStore
from repro.core.device import DeviceStats, TnicDevice
from repro.core.dma import DmaEngine
from repro.core.keystore import Keystore

__all__ = [
    "AttestationError",
    "AttestationKernel",
    "AttestedMessage",
    "ContinuityError",
    "CounterStore",
    "DeviceStats",
    "DmaEngine",
    "Keystore",
    "MacMismatchError",
    "TnicDevice",
    "UnknownSessionError",
]
