"""Deterministic randomness for simulations.

Simulations must be reproducible: every stochastic element (TEE latency
spikes, network jitter, Byzantine adversary choices) draws from a
:class:`DeterministicRng` seeded explicitly.  Independent *streams* are
derived from a root seed by name, so adding a new consumer never
perturbs the draws seen by existing ones."""

from __future__ import annotations

import hashlib
import random
from math import exp, log, sqrt

#: The constant of ``random.normalvariate``'s Kinderman-Monahan
#: ratio-of-uniforms sampler (``random.NV_MAGICCONST``).
_NV_MAGICCONST = 4 * exp(-0.5) / sqrt(2.0)


class DeterministicRng:
    """A named, seeded random stream with convenience distributions."""

    def __init__(self, seed: int | str = 0, stream: str = "root") -> None:
        digest = hashlib.sha256(f"{seed}/{stream}".encode()).digest()
        self.seed = seed
        self.stream = stream
        self._random = random.Random(int.from_bytes(digest[:8], "big"))

    def derive(self, stream: str) -> "DeterministicRng":
        """Create an independent child stream named *stream*."""
        return DeterministicRng(self.seed, f"{self.stream}/{stream}")

    # ------------------------------------------------------------------
    # Distributions
    # ------------------------------------------------------------------
    def uniform(self, low: float, high: float) -> float:
        return self._random.uniform(low, high)

    def expovariate(self, rate: float) -> float:
        return self._random.expovariate(rate)

    def gauss(self, mean: float, stddev: float) -> float:
        return self._random.gauss(mean, stddev)

    def lognormal_jitter(self, scale: float, sigma: float = 0.25) -> float:
        """A positive, right-skewed jitter around *scale*:
        ``scale * lognormvariate(0.0, sigma)``.

        The sampler of ``random.normalvariate`` (Kinderman & Monahan's
        ratio of uniforms) is written out here: the same ``random()``
        draws in the same order and the same float operations, so the
        results are bit-identical to the library call — and stay so
        whichever ``random.py`` is installed — without its three
        frames per sample on the once-per-attestation path.
        """
        uniform = self._random.random
        while True:
            u1 = uniform()
            u2 = 1.0 - uniform()
            z = _NV_MAGICCONST * (u1 - 0.5) / u2
            if z * z / 4.0 <= -log(u2):
                return scale * exp(z * sigma)

    def randint(self, low: int, high: int) -> int:
        return self._random.randint(low, high)

    def randrange(self, low: int, high: int) -> int:
        return self._random.randrange(low, high)

    def getrandbits(self, bits: int) -> int:
        return self._random.getrandbits(bits)

    def random(self) -> float:
        return self._random.random()

    def choice(self, seq):
        return self._random.choice(seq)

    def shuffle(self, seq) -> None:
        self._random.shuffle(seq)

    def chance(self, probability: float) -> bool:
        """Bernoulli draw: True with the given probability."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability out of range: {probability}")
        return self._random.random() < probability

    def bytes(self, n: int) -> bytes:
        return self._random.randbytes(n)
