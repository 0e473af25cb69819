"""The TNIC network system stack (§5, Figure 4).

The middle layer between the programming APIs (:mod:`repro.api`) and
the TNIC hardware (:mod:`repro.core`):

* :mod:`~repro.stack.memory` — hugepage-backed ibv memory: DMA-eligible
  application buffers, each named by an lkey and an rkey.
* :mod:`~repro.stack.rdma_lib` — the network (RDMA) library: the table
  that registers ibv memory under its keys, and the post, one call to
  ``TnicDevice.send`` that never yields, so it takes no TNIC-OS lock.

§5.1's driver and mapped REGs pages have no module: ``TnicDevice``
takes its MAC and IP as constructor arguments and each request as call
arguments, and the doorbell and descriptor-fetch cost is the DMA
engine's per-transfer set-up (:mod:`repro.core.dma`).
"""

from repro.stack.memory import HugePageArea, IbvMemory, MemoryError_
from repro.stack.rdma_lib import RdmaLibrary, WorkRequest

__all__ = [
    "HugePageArea",
    "IbvMemory",
    "MemoryError_",
    "RdmaLibrary",
    "WorkRequest",
]
