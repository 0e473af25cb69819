"""repro — a Python reproduction of *TNIC: A Trusted NIC Architecture*
(ASPLOS 2025).

TNIC places a minimal, formally verified root of trust at the network
interface: an attestation kernel providing exactly two security
properties — **transferable authentication** and **non-equivocation** —
which suffice to run Byzantine-fault-tolerant protocols with only
2f+1 replicas.

Package map (matching the paper's layering, Figure 1):

* :mod:`repro.core` — the TNIC hardware (attestation kernel, DMA, device,
  FPGA resource model).
* :mod:`repro.roce` — the RoCE reliable transport kernel.
* :mod:`repro.net` — packets, ARP, 100Gb MAC, fabric + fault injection.
* :mod:`repro.stack` — ibv memory and the RDMA library's post path.
* :mod:`repro.api` — Table-1 programming APIs + the CFT→BFT transform.
* :mod:`repro.attest_protocol` — bootstrapping and remote attestation.
* :mod:`repro.verification` — bounded model checking of the protocols.
* :mod:`repro.tee` — TEE baselines with calibrated latency profiles.
* :mod:`repro.stacks` — the §8.2 network-stack comparison models.
* :mod:`repro.systems` — A2M, BFT, Chain Replication, PeerReview, and
  the TEE-hosted CFT baselines.
* :mod:`repro.byzantine` — adversarial campaigns.
* :mod:`repro.sim` — the discrete-event simulator and the latency
  calibration table.
* :mod:`repro.bench` — workload generators and reporting.

Quickstart::

    from repro.api import Cluster, auth_send
    from repro.api.ops import recv

    cluster = Cluster(["alice", "bob"])
    a, b = cluster.connect("alice", "bob")
    cluster.run(auth_send(a, b"hello, trusted world"))
    cluster.run()
    print(recv(b)["payload"])
"""

from repro.api import (
    Cluster,
    auth_send,
    local_send,
    local_verify,
    poll,
    rem_read,
    rem_write,
)
from repro.core import AttestationKernel, AttestedMessage, TnicDevice

__version__ = "1.0.0"

__all__ = [
    "AttestationKernel",
    "AttestedMessage",
    "Cluster",
    "TnicDevice",
    "__version__",
    "auth_send",
    "local_send",
    "local_verify",
    "poll",
    "rem_read",
    "rem_write",
]
