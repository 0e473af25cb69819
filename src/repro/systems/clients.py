"""Byzantine clients and attested replies (Appendix C.1).

"TNIC assumes Byzantine (untrusted) clients; as such, its installed
shared keys cannot be outsourced. We assume that at the initialization,
the System Designer also loads to TNIC devices a (per-device) key pair
C_{pub,priv} where the C_pub is distributed to clients. TNIC then
replies to a client by verifying the (under transmission) attested
message and signing it with C_priv. ... The only attack vector open to
a Byzantine machine is to try to equivocate by sending a stale, valid,
attested message that does not reflect the current execution round.
However, clients can detect this by verifying that the original request
is theirs."

:class:`ClientReplyPort` is the device-side signer (it only signs
messages whose attestation verifies, so a compromised host cannot make
the device endorse arbitrary bytes); :class:`TrustedClient` verifies
signatures and binds replies to outstanding request nonces.
"""

from __future__ import annotations

from repro.core.attestation import AttestationError, AttestationKernel, AttestedMessage
from repro.crypto.hashing import sha256
from repro.crypto.rsa import RsaKeyPair, RsaPublicKey, generate_keypair
from repro.sim.record import Record, record


class ClientAuthError(Exception):
    """A reply failed the client-side verification."""


@record
class SignedReply(Record):
    """An attested message endorsed by the device's client key."""

    message: AttestedMessage
    request_nonce: bytes
    signature: int

    def signed_payload(self) -> bytes:
        return sha256(
            "client-reply",
            self.message.payload,
            self.message.counter,
            self.message.device_id,
            self.message.session_id,
            self.request_nonce,
        )


class ClientReplyPort:
    """Device-side signing of replies to clients.

    Holds C_priv inside the trusted boundary; refuses to sign any
    message that does not carry a valid attestation, so the untrusted
    host cannot obtain signatures over fabricated content.
    """

    def __init__(self, kernel: AttestationKernel) -> None:
        self.kernel = kernel
        self._keys: RsaKeyPair = generate_keypair(
            seed=f"client-keys/{kernel.device_id}"
        )
        self.signed = 0
        self.refused = 0

    @property
    def public_key(self) -> RsaPublicKey:
        """C_pub — distributed to clients by the System designer."""
        return self._keys.public

    def sign_reply(
        self, session_id: int, message: AttestedMessage, request_nonce: bytes
    ) -> SignedReply:
        """Endorse *message* for the client that sent *request_nonce*.

        The device first checks transferable authentication of the
        attested message; a host handing it unverifiable bytes gets a
        refusal, not a signature.
        """
        if not self.kernel.check_transferable(session_id, message):
            self.refused += 1
            raise AttestationError(
                "device refuses to sign a reply whose attestation "
                "does not verify"
            )
        unsigned = SignedReply(message=message, request_nonce=request_nonce,
                               signature=0)
        signature = self._keys.sign(unsigned.signed_payload())
        self.signed += 1
        return SignedReply(
            message=message, request_nonce=request_nonce, signature=signature
        )


class TrustedClient:
    """A client holding C_pub for the devices it talks to."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._device_keys: dict[int, RsaPublicKey] = {}
        self._outstanding: dict[bytes, bytes] = {}  # nonce -> request
        self._nonce_counter = 0
        self.accepted = 0
        self.rejected = 0

    def learn_device_key(self, device_id: int, public_key: RsaPublicKey) -> None:
        self._device_keys[device_id] = public_key

    def make_request(self, body: bytes) -> tuple[bytes, bytes]:
        """Create a request with a fresh nonce; returns (nonce, request)."""
        nonce = sha256(self.name, self._nonce_counter)[:16]
        self._nonce_counter += 1
        self._outstanding[nonce] = body
        return nonce, body

    def verify_reply(self, reply: SignedReply) -> bytes:
        """Accept a reply only if it is signed by a known device key AND
        answers one of *our* outstanding requests (anti-staleness)."""
        key = self._device_keys.get(reply.message.device_id)
        if key is None:
            self.rejected += 1
            raise ClientAuthError(
                f"no C_pub known for device {reply.message.device_id}"
            )
        if not key.verify(reply.signed_payload(), reply.signature):
            self.rejected += 1
            raise ClientAuthError("reply signature invalid")
        if reply.request_nonce not in self._outstanding:
            # "a stale, valid, attested message that does not reflect
            # the current execution round" — detected here.
            self.rejected += 1
            raise ClientAuthError(
                "reply does not answer any outstanding request (stale "
                "or replayed execution round)"
            )
        del self._outstanding[reply.request_nonce]
        self.accepted += 1
        return reply.message.payload
