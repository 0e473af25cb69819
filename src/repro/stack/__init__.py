"""The TNIC network system stack (§5, Figure 4).

The middle layer between the programming APIs (:mod:`repro.api`) and
the TNIC hardware (:mod:`repro.core`):

* :mod:`~repro.stack.regs` — the mapped REGs pages: one page of control
  and status registers per device, mapped into user space so the data
  path bypasses the kernel.
* :mod:`~repro.stack.driver` — the TNIC driver, invoked once at device
  initialisation to push the static configuration and create the
  ``/dev/fpga<ID>`` pseudo-device mapping.
* :mod:`~repro.stack.memory` — hugepage-backed ibv memory: DMA-eligible
  application buffers registered with the NIC.
* :mod:`~repro.stack.rdma_lib` — the network (RDMA) library executing
  operations by posting requests to the hardware through the REGs page;
  a post never yields, so it holds the page without a TNIC-OS lock.
"""

from repro.stack.driver import TnicDriver
from repro.stack.memory import HugePageArea, IbvMemory, MemoryError_, RdmaKey
from repro.stack.rdma_lib import RdmaLibrary, WorkRequest
from repro.stack.regs import MappedRegsPage, RegField

__all__ = [
    "HugePageArea",
    "IbvMemory",
    "MappedRegsPage",
    "MemoryError_",
    "RdmaKey",
    "RdmaLibrary",
    "RegField",
    "TnicDriver",
    "WorkRequest",
]
