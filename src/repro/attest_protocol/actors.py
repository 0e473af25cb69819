"""The principals of the bootstrapping / attestation protocol (§4.3).

The division of knowledge follows the paper:

* only the Manufacturer and genuine hardware know a device's ``HW_key``
  (the Manufacturer later discloses it to the IP vendor, whom it
  trusts, so the vendor can check measurement certificates);
* the controller's private key never leaves the device;
* the vendor's public key is *embedded in the controller binary*, so a
  controller only talks to the genuine vendor;
* application/host software appears nowhere here — it is untrusted.
"""

from __future__ import annotations

from repro.crypto.hashing import sha256
from repro.crypto.hmac_engine import hmac_sha256, hmac_verify
from repro.crypto.rsa import RsaKeyPair, RsaPublicKey, generate_keypair
from repro.sim.record import Record, record


class ProtocolError(Exception):
    """Raised when any attestation step fails verification."""


@record
class ControllerBinary(Record):
    """The controller firmware image shipped by the vendor."""

    code: bytes
    vendor_public_key: RsaPublicKey  # IPVendor_pub is embedded in Ctrl_bin

    def measurement(self) -> bytes:
        return sha256("ctrl-bin", self.code, self.vendor_public_key.modulus)


@record
class MeasurementCertificate(Record):
    """Ctrl_bin_cert: HW_key-MAC over the measurement and Ctrl_pub."""

    device_serial: str
    binary_measurement: bytes
    controller_public_key: RsaPublicKey
    mac: bytes


@record
class AttestationReport(Record):
    """The signed report (step 2-3 of Figure 3)."""

    certificate: MeasurementCertificate
    nonce: bytes
    signature: int

    def signed_payload(self) -> bytes:
        return sha256(
            "report",
            self.certificate.device_serial,
            self.certificate.binary_measurement,
            self.certificate.controller_public_key.modulus,
            self.certificate.mac,
            self.nonce,
        )


class Manufacturer:
    """Burns HW keys at device construction and vouches for them."""

    def __init__(self, name: str = "acme-fpga") -> None:
        self.name = name
        self._hw_keys: dict[str, bytes] = {}

    def construct_device(self, serial: str) -> bytes:
        """Burn and record a fresh HW_key for *serial*."""
        if serial in self._hw_keys:
            raise ProtocolError(f"device {serial} already constructed")
        hw_key = sha256("hw-key", self.name, serial)
        self._hw_keys[serial] = hw_key
        return hw_key

    def disclose_hw_key(self, serial: str, to_vendor: "IpVendor") -> None:
        """Share the device key with a trusted IP vendor (§3.2: the
        manufacturer and vendor trust each other)."""
        if serial not in self._hw_keys:
            raise ProtocolError(f"unknown device {serial}")
        # The one sanctioned key hand-off in the whole protocol (§3.2).
        to_vendor.learn_hw_key(serial, self._hw_keys[serial])  # lint: ignore[SEC003]


class TnicControllerDevice:
    """A (possibly genuine) TNIC device running a controller binary."""

    def __init__(self, serial: str, hw_key: bytes, binary: ControllerBinary) -> None:
        self.serial = serial
        self._hw_key = hw_key
        self.binary = binary
        # Firmware generates the device+binary key pair (step: "generates
        # a key pair Ctrl_{pub,priv} for the specific device and binary").
        self._controller_keys: RsaKeyPair = generate_keypair(
            seed=f"ctrl/{serial}/{binary.measurement().hex()}"
        )
        self.certificate = self._issue_measurement_certificate()
        self.received_bitstream: bytes | None = None
        self.received_secrets: dict[int, bytes] = {}

    @property
    def controller_public_key(self) -> RsaPublicKey:
        return self._controller_keys.public

    def _issue_measurement_certificate(self) -> MeasurementCertificate:
        """Sign the measurement of Ctrl_bin and Ctrl_pub with HW_key."""
        measurement = self.binary.measurement()
        mac = hmac_sha256(
            self._hw_key,
            "ctrl-bin-cert",
            self.serial,
            measurement,
            self._controller_keys.public.modulus,
        )
        return MeasurementCertificate(
            device_serial=self.serial,
            binary_measurement=measurement,
            controller_public_key=self._controller_keys.public,
            mac=mac,
        )

    def produce_report(self, nonce: bytes) -> AttestationReport:
        """Steps 2-3: sign (Ctrl_bin_cert, nonce) with Ctrl_priv."""
        unsigned = AttestationReport(
            certificate=self.certificate, nonce=nonce, signature=0
        )
        signature = self._controller_keys.sign(unsigned.signed_payload())
        return AttestationReport(
            certificate=self.certificate, nonce=nonce, signature=signature
        )

    def expected_vendor_key(self) -> RsaPublicKey:
        """The vendor key the controller will insist on (6.1-6.3)."""
        return self.binary.vendor_public_key

    def accept_delivery(
        self, bitstream: bytes, secrets: dict[int, bytes]
    ) -> None:
        """Install the decrypted TNIC bitstream and session secrets."""
        self.received_bitstream = bitstream
        self.received_secrets = dict(secrets)


class IpVendor:
    """Synthesises the TNIC bitstream and provisions devices."""

    def __init__(self, name: str = "tnic-ip-vendor") -> None:
        self.name = name
        self.keys = generate_keypair(seed=f"vendor/{name}")
        self._hw_keys: dict[str, bytes] = {}
        self._expected_measurements: set[bytes] = set()
        self.bitstream = sha256("tnic-bitstream-v1") * 64  # 2 KiB image
        self.provisioned: dict[str, RsaPublicKey] = {}

    # ------------------------------------------------------------------
    # Knowledge acquisition
    # ------------------------------------------------------------------
    def learn_hw_key(self, serial: str, hw_key: bytes) -> None:
        self._hw_keys[serial] = hw_key

    def publish_binary(self, code: bytes = b"controller-v1") -> ControllerBinary:
        """Ship a controller binary with our public key embedded."""
        binary = ControllerBinary(code=code, vendor_public_key=self.keys.public)
        self._expected_measurements.add(binary.measurement())
        return binary

    # ------------------------------------------------------------------
    # Verification (steps 4-5 of Figure 3)
    # ------------------------------------------------------------------
    def verify_report(self, report: AttestationReport, nonce: bytes) -> RsaPublicKey:
        """Verify genuineness; returns the attested Ctrl_pub.

        Checks, in order: nonce freshness, the HW_key MAC over the
        measurement certificate ("a genuine Ctrl_bin and a genuine
        device has signed m"), the expected binary measurement, and the
        report signature under the attested controller key.
        """
        if report.nonce != nonce:
            raise ProtocolError("stale or mismatched nonce (freshness)")
        cert = report.certificate
        hw_key = self._hw_keys.get(cert.device_serial)
        if hw_key is None:
            raise ProtocolError(
                f"no manufacturer-rooted key for device {cert.device_serial}"
            )
        if not hmac_verify(
            hw_key,
            cert.mac,
            "ctrl-bin-cert",
            cert.device_serial,
            cert.binary_measurement,
            cert.controller_public_key.modulus,
        ):
            raise ProtocolError("measurement certificate not rooted in HW_key")
        if cert.binary_measurement not in self._expected_measurements:
            raise ProtocolError("controller binary measurement is unknown")
        if not cert.controller_public_key.verify(
            report.signed_payload(), report.signature
        ):
            raise ProtocolError("report signature invalid for attested Ctrl_pub")
        self.provisioned[cert.device_serial] = cert.controller_public_key
        return cert.controller_public_key
