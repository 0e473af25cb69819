"""The TNIC-OS library (§5.2).

"The OS library creates a TNIC-process object to represent each TNIC
device. This TNIC-process in TNIC is not a separate scheduling entity
(i.e., a thread as in classical OSes). In contrast, it is an object
handle, exposed to the ibv library but managed by the TNIC-OS library
that acquires locks on the respective REG pages to ensure isolated
access to the TNIC hardware."
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.resources import Resource
from repro.stack.regs import MappedRegsPage

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.clock import Simulator


class TnicProcess:
    """Object handle representing one TNIC device to the ibv library."""

    def __init__(self, sim: "Simulator", regs: MappedRegsPage) -> None:
        self.sim = sim
        self.regs = regs
        self._page_lock = Resource(sim, capacity=1)

    def exclusive_regs(self):
        """Process helper: acquire the REG-page lock.

        Lifecycle contract (LIV001): ``exclusive_regs`` pairs with
        :meth:`release_regs` on every path.  Usage inside a simulation
        process::

            yield process.exclusive_regs()
            try: ... program registers, ring doorbell ...
            finally: process.release_regs()
        """
        return self._page_lock.acquire()

    def release_regs(self) -> None:
        self._page_lock.release()

    @property
    def contended(self) -> bool:
        """True when another request currently holds the REG page."""
        return self._page_lock.in_use > 0


class TnicOsLibrary:
    """Registry of TNIC-process handles, one per attached device."""

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._processes: dict[int, TnicProcess] = {}

    def open_device(self, regs: MappedRegsPage) -> TnicProcess:
        """Create (or return) the TNIC-process for a mapped device."""
        index = regs.device_index
        if index not in self._processes:
            self._processes[index] = TnicProcess(self.sim, regs)
        return self._processes[index]

    def process_for(self, device_index: int) -> TnicProcess:
        try:
            return self._processes[device_index]
        except KeyError:
            raise KeyError(f"no TNIC-process for device {device_index}") from None

    def __len__(self) -> int:
        return len(self._processes)
