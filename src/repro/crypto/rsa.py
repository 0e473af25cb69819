"""A compact textbook RSA signature scheme.

The bootstrapping and remote-attestation protocols (§4.3) need genuine
asymmetric signatures: the Manufacturer's hardware key signs controller
measurements, the Controller key pair signs attestation reports, and
the IP Vendor key authenticates configuration pushes.  No third-party
crypto package is available offline, so this module implements RSA from
first principles:

* Miller–Rabin probabilistic primality testing,
* deterministic key generation from a seed (reproducible devices),
* hash-then-sign with a fixed-width encoding (a simplified, deterministic
  PKCS#1-style padding).

Keys default to 512-bit moduli: small enough to generate quickly in
pure Python, large enough that signatures are not forgeable by the
simulated adversary (who only has the public key and the API).
"""

from __future__ import annotations

from repro.crypto.hashing import sha256
from repro.sim.record import Record, record
from repro.sim.rng import DeterministicRng

_SMALL_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
]

_PUBLIC_EXPONENT = 65537


def _is_probable_prime(n: int, rng: DeterministicRng, rounds: int = 32) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def _random_prime(bits: int, rng: DeterministicRng) -> int:
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if candidate % _PUBLIC_EXPONENT == 1:
            continue  # keep e coprime with p-1
        if _is_probable_prime(candidate, rng):
            return candidate


@record
class RsaPublicKey(Record):
    """RSA public key; verifies signatures and identifies a principal."""

    modulus: int
    exponent: int = _PUBLIC_EXPONENT

    def verify(self, message: bytes, signature: int) -> bool:
        """Check *signature* over SHA-256(message)."""
        if not 0 < signature < self.modulus:
            return False
        recovered = pow(signature, self.exponent, self.modulus)
        return recovered == _encode_digest(sha256(message), self.modulus)

    def fingerprint(self) -> str:
        """Short stable identifier for logs and certificate subjects."""
        return sha256(self.modulus, self.exponent).hex()[:16]


@record
class RsaKeyPair(Record):
    """RSA key pair; the private exponent never leaves this object."""

    public: RsaPublicKey
    _private_exponent: int

    def sign(self, message: bytes) -> int:
        """Deterministic signature over SHA-256(message)."""
        encoded = _encode_digest(sha256(message), self.public.modulus)
        return pow(encoded, self._private_exponent, self.public.modulus)


def _encode_digest(digest: bytes, modulus: int) -> int:
    """Fixed-width deterministic encoding of a digest below the modulus.

    A simplified PKCS#1 v1.5 layout: 0x01, 0xFF padding, 0x00, digest.
    """
    size = (modulus.bit_length() + 7) // 8
    padding_len = size - len(digest) - 3
    if padding_len < 0:
        raise ValueError("modulus too small for digest encoding")
    encoded = b"\x00\x01" + b"\xff" * padding_len + b"\x00" + digest
    return int.from_bytes(encoded, "big")


#: Stream used when no seed is given: keygen must *never* fall back to
#: process-global randomness, or device identities differ across runs.
_DEFAULT_KEYGEN_SEED = "repro/rsa/default-keygen"


def generate_keypair(bits: int = 512, seed: int | str | None = None) -> RsaKeyPair:
    """Generate an RSA key pair, always deterministically.

    The *seed* selects the key material; distinct principals must pass
    distinct seeds (e.g. ``seed=f"vendor/{name}"``).  Omitting it draws
    from a fixed named stream, so even "anonymous" keygen is replayable
    — the simulation's determinism contract (DESIGN.md §2) forbids
    reaching for the process-global ``random`` module here.
    """
    if bits < 256:
        raise ValueError("modulus must be at least 256 bits")
    rng = DeterministicRng(
        seed if seed is not None else _DEFAULT_KEYGEN_SEED, stream="rsa-keygen"
    )
    half = bits // 2
    while True:
        p = _random_prime(half, rng)
        q = _random_prime(bits - half, rng)
        if p == q:
            continue
        n = p * q
        phi = (p - 1) * (q - 1)
        try:
            d = pow(_PUBLIC_EXPONENT, -1, phi)
        except ValueError:
            continue
        if n.bit_length() >= bits:
            return RsaKeyPair(RsaPublicKey(n), d)
