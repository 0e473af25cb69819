"""Secrecy lemmas of the attestation protocol (Appendix B).

The paper's Tamarin model includes, beyond the trace lemmas of Eq. 1-5:

* ``HW_key_priv_secret`` — the device hardware key is not obtainable
  from any protocol message;
* ``S_key_secret`` — session keys established during initialisation
  stay secret, *including* past keys after a later hardware-key
  compromise (forward secrecy);
* ``bitstream_secret`` — shared bitstreams stay secret likewise.

This module rebuilds those lemmas with a small Dolev–Yao term algebra:
protocol runs are rendered as the multiset of terms an eavesdropper
observes, and :func:`saturate` computes the attacker's knowledge
closure (unpairing, decrypting with known keys, reconstructing KDF
outputs from known inputs).  A lemma holds when the secret is not in
the closure; deliberately weakened protocol variants (key on the wire,
session key derived from long-term material only) are provided so tests
can confirm the engine finds real leaks.
"""

from __future__ import annotations

from typing import Iterable

from repro.sim.record import Record, record

# ---------------------------------------------------------------------------
# Term algebra
# ---------------------------------------------------------------------------


@record
class Atom(Record):
    """An atomic secret or public value."""

    name: str

    def __repr__(self) -> str:
        return self.name


@record
class Pair(Record):
    left: "Term"
    right: "Term"

    def __repr__(self) -> str:
        return f"<{self.left!r},{self.right!r}>"


@record
class SEnc(Record):
    """Symmetric encryption senc(message, key)."""

    message: "Term"
    key: "Term"

    def __repr__(self) -> str:
        return f"senc({self.message!r},{self.key!r})"


@record
class Mac(Record):
    """mac(message, key): reveals neither message contents nor key."""

    message: "Term"
    key: "Term"

    def __repr__(self) -> str:
        return f"mac({self.message!r},{self.key!r})"


@record
class Kdf(Record):
    """Key derivation over an ordered input tuple."""

    inputs: tuple["Term", ...]

    def __repr__(self) -> str:
        return f"kdf{self.inputs!r}"


@record
class Pub(Record):
    """The public half of an asymmetric pair (always derivable)."""

    of: "Term"

    def __repr__(self) -> str:
        return f"pub({self.of!r})"


Term = Atom | Pair | SEnc | Mac | Kdf | Pub

#: Rounds of rule application :func:`saturate` runs at most.
SATURATION_ROUNDS = 10


def saturate(observed: Iterable[Term]) -> set[Term]:
    """Dolev–Yao knowledge closure of *observed*, over at most
    :data:`SATURATION_ROUNDS` rounds.

    Decomposition rules: unpair; decrypt ``senc(m,k)`` when ``k`` is
    known; take ``pub(x)`` components apart is NOT allowed (one-way).
    Construction rules (bounded to terms already seen as subterms):
    rebuild ``kdf(inputs)`` when every input is known, and ``pub(x)``
    when ``x`` is known.
    """
    knowledge: set[Term] = set(observed)
    kdf_targets = {t for t in _all_subterms(knowledge) if isinstance(t, Kdf)}
    pub_targets = {t for t in _all_subterms(knowledge) if isinstance(t, Pub)}
    for _ in range(SATURATION_ROUNDS):
        new: set[Term] = set()
        for term in knowledge:
            if isinstance(term, Pair):
                new.add(term.left)
                new.add(term.right)
            elif isinstance(term, SEnc) and term.key in knowledge:
                new.add(term.message)
        for target in kdf_targets:
            if target not in knowledge and all(
                i in knowledge for i in target.inputs
            ):
                new.add(target)
        for target in pub_targets:
            if target not in knowledge and target.of in knowledge:
                new.add(target)
        if new <= knowledge:
            break
        knowledge |= new
    return knowledge


def _all_subterms(terms: Iterable[Term]) -> set[Term]:
    seen: set[Term] = set()
    stack = list(terms)
    while stack:
        term = stack.pop()
        if term in seen:
            continue
        seen.add(term)
        if isinstance(term, Pair):
            stack.extend((term.left, term.right))
        elif isinstance(term, (SEnc, Mac)):
            stack.extend((term.message, term.key))
        elif isinstance(term, Kdf):
            stack.extend(term.inputs)
        elif isinstance(term, Pub):
            stack.append(term.of)
    return seen


# ---------------------------------------------------------------------------
# The provisioning run as observed terms
# ---------------------------------------------------------------------------

HW_KEY = Atom("hw_key")
CTRL_PRIV = Atom("ctrl_priv")
VENDOR_PRIV = Atom("vendor_priv")
#: Ephemeral handshake secret (the DH contribution); never on the wire.
ECDHE = Atom("ecdhe_secret")
NONCE_V = Atom("nonce_vendor")
NONCE_D = Atom("nonce_device")
MEASUREMENT = Atom("ctrl_bin_measurement")
BITSTREAM = Atom("tnic_bitstream")
SESSION_SECRET = Atom("session_secret")

#: The session key binds both identities, both nonces and the
#: ephemeral secret (forward secrecy comes from the latter).
SESSION_KEY = Kdf((Pub(VENDOR_PRIV), Pub(CTRL_PRIV), NONCE_V, NONCE_D, ECDHE))


def protocol_run_observations(
    weaken_key_on_wire: bool = False,
    weaken_kdf_from_hw_key: bool = False,
) -> list[Term]:
    """Terms an eavesdropper sees during one Figure-3 run.

    The ``weaken_*`` flags produce deliberately broken protocol
    variants used to validate the analysis.
    """
    session_key: Term = SESSION_KEY
    if weaken_kdf_from_hw_key:
        # Broken variant: session key derived from long-term material
        # that a later compromise reveals.
        session_key = Kdf((HW_KEY, NONCE_V, NONCE_D))
    observed: list[Term] = [
        # (1) vendor nonce, in the clear.
        NONCE_V,
        # (2)-(3) the attestation report: measurement, Ctrl_pub, the
        # HW-key MAC and the Ctrl_priv signature (modelled as a MAC —
        # same secrecy behaviour: reveals nothing).
        MEASUREMENT,
        Pub(CTRL_PRIV),
        Mac(Pair(MEASUREMENT, Pub(CTRL_PRIV)), HW_KEY),
        Mac(Pair(MEASUREMENT, NONCE_V), CTRL_PRIV),
        # (6) handshake: device nonce and the vendor identity.
        NONCE_D,
        Pub(VENDOR_PRIV),
        # (7+) the sealed delivery of bitstream and session secrets.
        SEnc(Pair(BITSTREAM, SESSION_SECRET), session_key),
    ]
    if weaken_key_on_wire:
        observed.append(session_key)
    return observed


# ---------------------------------------------------------------------------
# Lemmas
# ---------------------------------------------------------------------------


def hw_key_secret() -> bool:
    """``HW_key_priv_secret``: HW_key not derivable from the run."""
    knowledge = saturate(protocol_run_observations())
    return HW_KEY not in knowledge


def session_key_secret(
    compromise_hw_key_later: bool = False,
    weaken_kdf_from_hw_key: bool = False,
) -> bool:
    """``S_key_secret``: the session key stays secret, even when the
    hardware key is compromised after the session completed."""
    observed = protocol_run_observations(
        weaken_kdf_from_hw_key=weaken_kdf_from_hw_key
    )
    extra = [HW_KEY] if compromise_hw_key_later else []
    knowledge = saturate([*observed, *extra])
    target = (
        Kdf((HW_KEY, NONCE_V, NONCE_D))
        if weaken_kdf_from_hw_key
        else SESSION_KEY
    )
    return target not in knowledge


def bitstream_secret(
    compromise_hw_key_later: bool = False,
    weaken_key_on_wire: bool = False,
) -> bool:
    """``bitstream_secret``: the delivered bitstream stays secret."""
    observed = protocol_run_observations(weaken_key_on_wire=weaken_key_on_wire)
    extra = [HW_KEY] if compromise_hw_key_later else []
    knowledge = saturate([*observed, *extra])
    return BITSTREAM not in knowledge
