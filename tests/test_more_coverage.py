"""Additional coverage: RSA properties, transform history bounds."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Cluster
from repro.crypto.rsa import generate_keypair

_KEYS = generate_keypair(seed="shared-property-key")


# ---------------------------------------------------------------------------
# RSA properties
# ---------------------------------------------------------------------------

@given(st.binary(min_size=0, max_size=128))
@settings(max_examples=40, deadline=None)
def test_rsa_sign_verify_any_message(message):
    signature = _KEYS.sign(message)
    assert _KEYS.public.verify(message, signature)


@given(st.binary(min_size=1, max_size=64), st.binary(min_size=1, max_size=64))
@settings(max_examples=40, deadline=None)
def test_rsa_signature_not_transferable_between_messages(m1, m2):
    signature = _KEYS.sign(m1)
    assert _KEYS.public.verify(m2, signature) == (m1 == m2)


@given(st.integers(min_value=1, max_value=2**64))
@settings(max_examples=40, deadline=None)
def test_rsa_random_signatures_rejected(candidate):
    assert not _KEYS.public.verify(b"target message", candidate)


def test_rsa_minimum_bits_enforced():
    with pytest.raises(ValueError):
        generate_keypair(bits=128)


def test_rsa_fingerprint_stable():
    assert _KEYS.public.fingerprint() == _KEYS.public.fingerprint()
    assert len(_KEYS.public.fingerprint()) == 16


# ---------------------------------------------------------------------------
# Transform history bounds
# ---------------------------------------------------------------------------

def test_transform_history_is_bounded():
    from repro.api.transform import BftTransform
    from repro.crypto.hashing import sha256

    cluster = Cluster(["s", "r"])
    conn, _ = cluster.connect("s", "r")
    counter = {"n": 0}

    def digest():
        return sha256("state", counter["n"])

    transform = BftTransform(conn, digest)
    for i in range(200):
        counter["n"] = i
        transform._remember_own_state()
    assert len(transform._own_history) <= BftTransform.HISTORY


def test_observe_peer_state_validates_length():
    from repro.api.transform import BftTransform
    from repro.crypto.hashing import sha256

    cluster = Cluster(["s", "r"])
    conn, _ = cluster.connect("s", "r")
    transform = BftTransform(conn, lambda: sha256("x"))
    with pytest.raises(ValueError):
        transform.observe_peer_state(b"short")
