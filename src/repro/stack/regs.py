"""Mapped REGs pages (§5.1).

"The driver enables kernel-bypass networking ... by mapping the TNIC
device to a user-space addresses range, the Mapped REGs pages. TNIC
reserves one page at the page granularity of our system for each
connected device that is represented as pseudo-devices in /dev/fpga<ID>.
Read and write access to the pseudo-device is equal to accessing the
control and status registers of the FPGA."

The model is a 4 KiB byte array with a fixed register layout; writing
the doorbell register hands the currently staged work request to the
device, exactly like ringing a doorbell over BAR space.  The library
posts a request as one burst over the contiguous control block
(:meth:`MappedRegsPage.write_request`), doorbell last, the way a NIC
driver writes a work-queue entry by MMIO.
"""

from __future__ import annotations

import enum
import struct
from typing import Callable

PAGE_SIZE = 4096


class RegField(enum.IntEnum):
    """Byte offsets of the control/status registers within the page."""

    CTRL_OPCODE = 0x00
    CTRL_QP_NUMBER = 0x08
    CTRL_LOCAL_ADDR = 0x10
    CTRL_REMOTE_ADDR = 0x18
    CTRL_LENGTH = 0x20
    CTRL_RKEY = 0x28
    CTRL_DOORBELL = 0x30
    STATUS_READY = 0x40
    STATUS_COMPLETIONS = 0x48
    STATUS_ERRORS = 0x50
    CONFIG_MAC_HI = 0x60
    CONFIG_MAC_LO = 0x68
    CONFIG_IP = 0x70
    CONFIG_QSFP_PORT = 0x78


#: CTRL_OPCODE (0x00) .. CTRL_DOORBELL (0x30) are contiguous: the six
#: request fields and the doorbell, stored as one block.
_CONTROL_BLOCK = struct.Struct("<7Q")
_U64 = struct.Struct("<Q")
_STATUS_COMPLETIONS = int(RegField.STATUS_COMPLETIONS)
_STATUS_ERRORS = int(RegField.STATUS_ERRORS)


class MappedRegsPage:
    """One user-space-mapped page of FPGA control/status registers."""

    def __init__(self, device_index: int) -> None:
        if device_index < 0:
            raise ValueError("device_index must be >= 0")
        self.device_index = device_index
        self.pseudo_device_path = f"/dev/fpga{device_index}"
        self._page = bytearray(PAGE_SIZE)
        #: A burst is packed here first: ``pack_into`` writes field by
        #: field, so a bad value must not reach the page half-written.
        self._burst = bytearray(_CONTROL_BLOCK.size)
        self._doorbell_handler: Callable[[], None] | None = None
        self.doorbell_rings = 0

    # ------------------------------------------------------------------
    # Raw access (what mmap'd loads/stores would be)
    # ------------------------------------------------------------------
    def write_u64(self, offset: int, value: int) -> None:
        """Write a 64-bit value at *offset*; the doorbell has side effects."""
        self._check_offset(offset)
        if not 0 <= value < 2**64:
            raise ValueError(f"register value out of range: {value}")
        self._page[offset : offset + 8] = value.to_bytes(8, "little")
        if offset == RegField.CTRL_DOORBELL:
            self.doorbell_rings += 1
            if self._doorbell_handler is not None:
                self._doorbell_handler()

    def write_request(
        self,
        opcode: int,
        qp_number: int,
        local_addr: int,
        remote_addr: int,
        length: int,
        rkey: int,
    ) -> None:
        """Program the whole control block and ring the doorbell.

        The same page bytes and doorbell as ``write_u64`` over
        CTRL_OPCODE..CTRL_DOORBELL in order, in one store.  A value
        outside [0, 2**64) raises ``ValueError`` and writes nothing.
        """
        burst = self._burst
        try:
            _CONTROL_BLOCK.pack_into(burst, 0, opcode, qp_number, local_addr,
                                     remote_addr, length, rkey, 1)
        except struct.error as exc:
            raise ValueError(f"register value out of range: {exc}") from None
        self._page[: _CONTROL_BLOCK.size] = burst
        self.doorbell_rings += 1
        if self._doorbell_handler is not None:
            self._doorbell_handler()

    def read_u64(self, offset: int) -> int:
        self._check_offset(offset)
        return int.from_bytes(self._page[offset : offset + 8], "little")

    @staticmethod
    def _check_offset(offset: int) -> None:
        if not 0 <= offset <= PAGE_SIZE - 8:
            raise ValueError(f"register offset out of page: {offset:#x}")
        if offset % 8:
            raise ValueError(f"unaligned register access: {offset:#x}")

    # ------------------------------------------------------------------
    # Device side
    # ------------------------------------------------------------------
    def on_doorbell(self, handler: Callable[[], None]) -> None:
        """Install the device's doorbell interrupt routine."""
        self._doorbell_handler = handler

    def staged_request(self) -> dict[str, int]:
        """Device-side view of the staged control registers."""
        return {
            "opcode": self.read_u64(RegField.CTRL_OPCODE),
            "qp_number": self.read_u64(RegField.CTRL_QP_NUMBER),
            "local_addr": self.read_u64(RegField.CTRL_LOCAL_ADDR),
            "remote_addr": self.read_u64(RegField.CTRL_REMOTE_ADDR),
            "length": self.read_u64(RegField.CTRL_LENGTH),
            "rkey": self.read_u64(RegField.CTRL_RKEY),
        }

    def post_status(self, completions: int = 0, errors: int = 0) -> None:
        """Device publishes progress into the status registers."""
        page = self._page
        if completions:
            (current,) = _U64.unpack_from(page, _STATUS_COMPLETIONS)
            _U64.pack_into(page, _STATUS_COMPLETIONS, current + completions)
        if errors:
            (current,) = _U64.unpack_from(page, _STATUS_ERRORS)
            _U64.pack_into(page, _STATUS_ERRORS, current + errors)
