"""The TNIC driver (§5.1).

"The TNIC driver is invoked at the device initialization, before the
remote attestation protocol, to configure the hardware with its static
configuration (the device MAC address, the device QSFP port, and the
network IP used by the application)."

After configuration the driver exposes the device through a mapped
REGs page, establishing the kernel-bypass control path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.device import TnicDevice
from repro.crypto.hashing import sha256
from repro.sim.instrument import count, emit
from repro.sim.record import Record, record
from repro.stack.regs import MappedRegsPage, RegField

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.clock import Simulator


@record
class StaticConfig(Record):
    """The static device configuration pushed at initialisation."""

    mac_address: str
    ip: str
    qsfp_port: int = 0

    def __post_init__(self) -> None:
        if not self.mac_address or not self.ip:
            raise ValueError("mac_address and ip are required")
        if self.qsfp_port not in (0, 1):
            # The U280 exposes two QSFP28 ports; §8.3 notes only a
            # single port is usable with the Coyote-based design.
            raise ValueError("qsfp_port must be 0 or 1")


class TnicDriver:
    """Kernel-side initialisation producing a user-space mapping."""

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._next_device_index = 0
        self._mappings: dict[int, MappedRegsPage] = {}

    def initialise(self, device: TnicDevice, config: StaticConfig) -> MappedRegsPage:
        """Configure *device* and return its mapped REGs page.

        Must run before the remote attestation protocol; it writes the
        static configuration into the config registers and creates the
        ``/dev/fpga<ID>`` mapping.
        """
        if config.ip != device.ip:
            raise ValueError(
                f"config IP {config.ip} does not match device IP {device.ip}"
            )
        index = self._next_device_index
        self._next_device_index += 1
        regs = MappedRegsPage(index)
        mac_int = _mac_to_int(config.mac_address)
        regs.write_u64(RegField.CONFIG_MAC_HI, mac_int >> 32)
        regs.write_u64(RegField.CONFIG_MAC_LO, mac_int & 0xFFFF_FFFF)
        regs.write_u64(RegField.CONFIG_IP, _ip_to_int(config.ip))
        regs.write_u64(RegField.CONFIG_QSFP_PORT, config.qsfp_port)
        regs.write_u64(RegField.STATUS_READY, 1)
        self._mappings[index] = regs
        emit(self.sim, "driver.init",
             f"/dev/fpga{index} ip={config.ip} qsfp={config.qsfp_port}",
             device=device.device_id)
        count(self.sim, "driver.devices_initialised")
        return regs

    def mapping_for(self, device_index: int) -> MappedRegsPage:
        try:
            return self._mappings[device_index]
        except KeyError:
            raise KeyError(f"device {device_index} was never initialised") from None


def _digest_int(text: str, nbytes: int) -> int:
    """*nbytes* of the text's SHA-256: the same register value in every
    interpreter (builtin ``hash`` of a ``str`` is salted per process)."""
    return int.from_bytes(sha256(text)[:nbytes], "big")


def _mac_to_int(mac: str) -> int:
    """Accepts colon-separated hex MACs; other strings digest to 48 bits."""
    parts = mac.split(":")
    if len(parts) == 6 and all(len(p) == 2 for p in parts):
        try:
            return int("".join(parts), 16)
        except ValueError:
            pass
    return _digest_int(mac, 6)


def _ip_to_int(ip: str) -> int:
    parts = ip.split(".")
    if len(parts) == 4:
        try:
            octets = [int(p) for p in parts]
            if all(0 <= o <= 255 for o in octets):
                value = 0
                for octet in octets:
                    value = (value << 8) | octet
                return value
        except ValueError:
            pass
    return _digest_int(ip, 4)
