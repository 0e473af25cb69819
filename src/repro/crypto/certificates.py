"""Signed certificates for the bootstrapping / attestation protocols.

A :class:`Certificate` binds a subject name and payload (e.g. the
measurement of the controller binary plus the controller public key) to
the issuer's signature.  Chains are verified back to an explicitly
trusted root, mirroring how the IP Vendor validates that a genuine
controller binary runs on a genuine TNIC device (§4.3, steps 4-5)."""

from __future__ import annotations

from dataclasses import field
from typing import Any, Mapping

from repro.crypto.hashing import canonical_bytes, sha256
from repro.crypto.rsa import RsaKeyPair, RsaPublicKey
from repro.sim.record import Record, record


class CertificateError(Exception):
    """Raised when a certificate or chain fails verification."""


@record
class Certificate(Record):
    """An issuer-signed statement about a subject.

    ``payload`` holds protocol-specific claims (measurements, nonces,
    embedded public keys) as a flat mapping of hashable values.
    """

    subject: str
    subject_key: RsaPublicKey
    payload: Mapping[str, Any]
    issuer: str
    signature: int = field(repr=False, default=0)

    def to_signed_bytes(self) -> bytes:
        """Canonical byte encoding covered by the signature."""
        items: list[Any] = [self.subject, self.subject_key.modulus, self.issuer]
        for key in sorted(self.payload):
            items.append(key)
            items.append(self.payload[key])
        return canonical_bytes(items)

    def digest(self) -> bytes:
        """Hash of the signed content (used as a measurement input)."""
        return sha256(self.to_signed_bytes())

    @classmethod
    def issue(
        cls,
        issuer_name: str,
        issuer_keys: RsaKeyPair,
        subject: str,
        subject_key: RsaPublicKey,
        payload: Mapping[str, Any],
    ) -> "Certificate":
        """Create and sign a certificate with the issuer's key pair."""
        unsigned = cls(
            subject=subject,
            subject_key=subject_key,
            payload=dict(payload),
            issuer=issuer_name,
        )
        signature = issuer_keys.sign(unsigned.to_signed_bytes())
        return cls(
            subject=subject,
            subject_key=subject_key,
            payload=dict(payload),
            issuer=issuer_name,
            signature=signature,
        )

    def verify(self, issuer_key: RsaPublicKey) -> None:
        """Raise :class:`CertificateError` unless the signature checks."""
        if not issuer_key.verify(self.to_signed_bytes(), self.signature):
            raise CertificateError(
                f"certificate for {self.subject!r} failed verification "
                f"against issuer {self.issuer!r}"
            )


def verify_chain(
    chain: list[Certificate], trusted_roots: Mapping[str, RsaPublicKey]
) -> None:
    """Verify *chain* leaf-first back to a trusted root.

    Each certificate must be signed by the next one's subject key; the
    last certificate's issuer must appear in *trusted_roots*.
    """
    if not chain:
        raise CertificateError("empty certificate chain")
    for cert, parent in zip(chain, chain[1:]):
        if cert.issuer != parent.subject:
            raise CertificateError(
                f"broken chain: {cert.subject!r} issued by {cert.issuer!r}, "
                f"but next certificate is for {parent.subject!r}"
            )
        cert.verify(parent.subject_key)
    root = chain[-1]
    trusted = trusted_roots.get(root.issuer)
    if trusted is None:
        raise CertificateError(f"untrusted root issuer: {root.issuer!r}")
    root.verify(trusted)
