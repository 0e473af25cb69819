"""The end-to-end provisioning flow (Figure 3).

1. The IP vendor sends a random nonce *n* for freshness.
2-3. The controller signs (Ctrl_bin_cert, n) with Ctrl_priv and replies.
4-5. The vendor verifies the report against the HW_key and the expected
     binary measurement.
6. A mutually authenticated TLS channel is established: the vendor
   insists on the attested Ctrl_pub, the controller on its embedded
   IPVendor_pub.
7+. The vendor seals the session secrets and TNIC bitstream into the
    channel; the controller decrypts and installs them.

Any deviation (forged device, wrong binary, replayed nonce, tampered
delivery) raises :class:`~repro.attest_protocol.actors.ProtocolError`
or :class:`~repro.attest_protocol.tls.TlsError`.
"""

from __future__ import annotations

from repro.attest_protocol.actors import (
    IpVendor,
    Manufacturer,
    ProtocolError,
    TnicControllerDevice,
)
from repro.attest_protocol.tls import SecureChannel
from repro.crypto.hashing import sha256
from repro.crypto.rsa import RsaPublicKey
from repro.sim.record import Record, record
from repro.sim.rng import DeterministicRng


@record
class ProvisionedDevice(Record):
    """Outcome of a successful provisioning run."""

    device: TnicControllerDevice
    controller_public_key: RsaPublicKey
    session_secrets: dict[int, bytes]
    bitstream: bytes


def _handshake_key(
    vendor: IpVendor,
    controller_key: RsaPublicKey,
    vendor_nonce: bytes,
    device_nonce: bytes,
) -> bytes:
    """Derive the mutually authenticated session key (step 6).

    Both sides contribute a nonce; the key binds both public identities,
    so a channel only forms between the attested controller and the
    vendor whose key is embedded in the binary.
    """
    return sha256(
        "tls-session",
        vendor.keys.public.modulus,
        controller_key.modulus,
        vendor_nonce,
        device_nonce,
    )


def provision_device(
    manufacturer: Manufacturer,
    vendor: IpVendor,
    serial: str,
    sessions: dict[int, bytes],
    rng: DeterministicRng | None = None,
    device: TnicControllerDevice | None = None,
) -> ProvisionedDevice:
    """Run bootstrapping + remote attestation + delivery for one device.

    *sessions* maps session ids to the shared keys the System designer
    wants installed.  Passing an explicit *device* lets tests inject a
    counterfeit device; by default a genuine one is constructed.
    """
    rng = rng or DeterministicRng(serial, "attestation")

    # --- Bootstrapping -------------------------------------------------
    if device is None:
        hw_key = manufacturer.construct_device(serial)
        binary = vendor.publish_binary()
        device = TnicControllerDevice(serial, hw_key, binary)
    manufacturer.disclose_hw_key(serial, vendor)

    # --- Remote attestation (Figure 3) ----------------------------------
    nonce = rng.bytes(16)  # (1) vendor nonce for freshness
    report = device.produce_report(nonce)  # (2)-(3)
    attested_key = vendor.verify_report(report, nonce)  # (4)-(5)

    # --- Mutual TLS (6.1-6.3) -------------------------------------------
    if device.expected_vendor_key() != vendor.keys.public:
        raise ProtocolError(
            "controller refuses the channel: vendor key does not match "
            "the IPVendor_pub embedded in the binary"
        )
    if attested_key != device.controller_public_key:
        raise ProtocolError("vendor refuses the channel: unexpected Ctrl_pub")
    device_nonce = rng.derive("device").bytes(16)
    session_key = _handshake_key(vendor, attested_key, nonce, device_nonce)
    vendor_channel = SecureChannel(session_key)
    device_channel = SecureChannel(session_key)

    # --- Secret + bitstream delivery ------------------------------------
    payload = _encode_delivery(vendor.bitstream, sessions)
    record = vendor_channel.seal(payload)
    plaintext = device_channel.open(record)
    bitstream, secrets = _decode_delivery(plaintext)
    device.accept_delivery(bitstream, secrets)
    return ProvisionedDevice(
        device=device,
        controller_public_key=attested_key,
        session_secrets=secrets,
        bitstream=bitstream,
    )


def _encode_delivery(bitstream: bytes, sessions: dict[int, bytes]) -> bytes:
    parts = [len(bitstream).to_bytes(8, "big"), bitstream,
             len(sessions).to_bytes(4, "big")]
    for session_id in sorted(sessions):
        key = sessions[session_id]
        parts.append(session_id.to_bytes(8, "big"))
        parts.append(len(key).to_bytes(4, "big"))
        parts.append(key)
    return b"".join(parts)


def _decode_delivery(data: bytes) -> tuple[bytes, dict[int, bytes]]:
    offset = 0
    bit_len = int.from_bytes(data[offset : offset + 8], "big")
    offset += 8
    bitstream = data[offset : offset + bit_len]
    offset += bit_len
    count = int.from_bytes(data[offset : offset + 4], "big")
    offset += 4
    sessions: dict[int, bytes] = {}
    for _ in range(count):
        session_id = int.from_bytes(data[offset : offset + 8], "big")
        offset += 8
        key_len = int.from_bytes(data[offset : offset + 4], "big")
        offset += 4
        sessions[session_id] = data[offset : offset + key_len]
        offset += key_len
    return bitstream, sessions
