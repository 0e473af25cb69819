"""The one HMAC-SHA256 in the tree: a key is absorbed once.

* :class:`KeyedHmac` is HMAC-SHA256 — the RFC 4231 vectors, and a
  Hypothesis differential against the standard library over keys on
  both sides of the 64 B block and messages of many blocks, with one
  state reused and copied mid-use;
* a session's state is built once, by ``Keystore.install``, and the
  datapath builds none and never reaches ``hmac.new``/``hmac.digest``;
* the checks that MAC through it still reject, cache warm or cold.
"""

import ast
import copy
import hmac
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.api.ops import recv
from repro.core import AttestationKernel, MacMismatchError, UnknownSessionError
from repro.core.keystore import Keystore
from repro.crypto import reset_verification_cache
from repro.crypto.hmac_engine import (
    KeyedHmac, VerificationCache, mac_encoded, verification_cache)
from repro.sim import Simulator
from repro.systems.bft import BftCounter
from repro.tee import TnicProvider
from tests.test_send_path import _pair, _send_windowed

KEY = b"k" * 32

#: RFC 4231 test cases 1-4, 6 and 7 (5 truncates its output): key,
#: data, HMAC-SHA-256.  Cases 6 and 7 use a 131-byte key, i.e. one
#: longer than the block, which is hashed first.
RFC_4231 = [
    (b"\x0b" * 20, b"Hi There",
     "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"),
    (b"Jefe", b"what do ya want for nothing?",
     "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"),
    (b"\xaa" * 20, b"\xdd" * 50,
     "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"),
    (bytes(range(1, 26)), b"\xcd" * 50,
     "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"),
    (b"\xaa" * 131,
     b"Test Using Larger Than Block-Size Key - Hash Key First",
     "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"),
    (b"\xaa" * 131,
     b"This is a test using a larger than block-size key and a larger "
     b"than block-size data. The key needs to be hashed before being "
     b"used by the HMAC algorithm.",
     "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"),
]


@pytest.mark.parametrize("key, data, expected", RFC_4231)
def test_rfc_4231_vectors(key, data, expected):
    assert KeyedHmac(key).mac(data).hex() == expected
    assert mac_encoded(key, data).hex() == expected


@given(
    key=st.binary(min_size=1, max_size=200),
    messages=st.lists(st.binary(min_size=0, max_size=20_000),
                      min_size=1, max_size=6),
)
@example(key=bytes(range(63)), messages=[b"m"])  # around the block size
@example(key=bytes(range(64)), messages=[b"m"])
@example(key=bytes(range(65)), messages=[b"m"])
@settings(max_examples=60, deadline=None)
def test_keyed_state_agrees_with_the_standard_library(key, messages):
    state = KeyedHmac(key)
    assert state.key_id == VerificationCache.key_id(key)  # of the key as given
    twin = None
    for index, message in enumerate(messages):
        expected = hmac.digest(key, message, "sha256")
        assert state.mac(message) == expected
        assert state.mac(message) == expected  # a MAC leaves no trace
        if index == 0:
            twin = copy.copy(state)  # copied mid-use
        assert twin.mac(message) == expected


@pytest.mark.parametrize("key", [b"", "text", None, bytearray(b"k" * 32)])
def test_a_key_must_be_non_empty_bytes(key):
    with pytest.raises(ValueError):
        KeyedHmac(key)


# ----------------------------------------------------------------------
# Keyed once per session, never on the datapath
# ----------------------------------------------------------------------
def _spy_on_keying(monkeypatch) -> list:
    """Record every state built, and refuse the library's HMAC."""
    built: list = []
    init = KeyedHmac.__init__

    def counting(self, key):
        built.append(len(key))
        init(self, key)

    def refused(*args, **kwargs):
        raise AssertionError("the tree has one HMAC, and it is not this one")

    monkeypatch.setattr(KeyedHmac, "__init__", counting)
    monkeypatch.setattr(hmac, "new", refused)
    monkeypatch.setattr(hmac, "digest", refused)
    return built


def test_install_keys_exactly_one_state_per_session(monkeypatch):
    built = _spy_on_keying(monkeypatch)
    store = Keystore(device_id=1)
    for session in range(1, 4):
        store.install(session, bytes([session]) * 32)
        assert len(built) == session
    states = [store.mac_for(session) for session in range(1, 4)]
    assert len({id(state) for state in states}) == 3
    assert [store.mac_for(session) for session in range(1, 4)] == states
    assert len(built) == 3
    # Kept of a key: its state, which carries the cache's fingerprint of
    # it — one table, and not the key's bytes.
    [table] = [value for value in vars(store).values() if isinstance(value, dict)]
    assert list(table.values()) == states
    assert set(KeyedHmac.__slots__) == {"_inner", "_outer", "key_id"}
    assert states[0].key_id != bytes([1]) * 32
    # No process-wide memo behind it: the same key on another device is
    # keyed again, there.
    Keystore(device_id=2).install(1, bytes([1]) * 32)
    assert len(built) == 4


def test_a_bft_run_keys_no_state_after_set_up(monkeypatch):
    system = BftCounter("tnic", f=1)
    built = _spy_on_keying(monkeypatch)
    metrics = system.run_workload(200, pipeline_depth=4)
    assert metrics.committed == 200 and not system.aborted
    assert built == []


def test_a_window_16_send_keys_no_state_after_set_up(monkeypatch):
    cluster, conn_a, conn_b = _pair()
    built = _spy_on_keying(monkeypatch)
    _send_windowed(cluster, conn_a, 200, 64)
    delivered = 0
    while recv(conn_b) is not None:
        delivered += 1
    assert delivered == 200
    assert built == []


def test_the_hmac_module_is_used_for_compare_digest_only():
    """One HMAC implementation in ``src/``: nothing calls, or imports,
    anything of the standard library's ``hmac`` but ``compare_digest``."""
    used = set()
    for path in Path(repro.__file__).parent.rglob("*.py"):
        tree = ast.parse(path.read_text())
        aliases = {"hmac"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                aliases.update(alias.asname or alias.name for alias in node.names
                               if alias.name == "hmac")
            elif isinstance(node, ast.ImportFrom) and node.module == "hmac":
                used.update(alias.name for alias in node.names)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                used.add(node.attr)
    assert used == {"compare_digest"}


# ----------------------------------------------------------------------
# Rejections, cache warm or cold
# ----------------------------------------------------------------------
def _bad_messages(genuine):
    return {
        "forged alpha": replace(genuine, alpha=bytes(32)),
        "replaced payload": replace(genuine, payload=b"evil"),
        "wrong session": replace(genuine, session_id=2),
    }


@pytest.mark.parametrize("warm", [False, True])
def test_bad_messages_fail_every_check(warm):
    reset_verification_cache()
    sender = AttestationKernel(10)
    sender.install_session(1, KEY)
    sender.install_session(2, b"j" * 32)
    genuine = sender.attest(1, b"payload")
    for name, bad in _bad_messages(genuine).items():
        receiver = AttestationKernel(20)
        receiver.install_session(1, KEY)
        receiver.install_session(2, b"j" * 32)
        session = bad.session_id
        if warm:  # the outcome of this very check is already cached
            assert receiver.check_transferable(1, genuine)
            assert not receiver.check_transferable(session, bad)
        hits = verification_cache.hits
        assert not receiver.check_transferable(session, bad), name
        assert verification_cache.hits == hits + warm
        with pytest.raises(MacMismatchError):
            receiver.verify(session, bad)
        assert receiver.verify(1, genuine) == b"payload"  # and only it
    with pytest.raises(UnknownSessionError):
        AttestationKernel(30).check_transferable(1, genuine)


@pytest.mark.parametrize("warm", [False, True])
def test_bad_messages_fail_provider_verify(warm):
    reset_verification_cache()
    sim = Simulator()
    sender, receiver = TnicProvider(sim, 1), TnicProvider(sim, 2)
    for provider in (sender, receiver):
        provider.install_session(1, KEY)
        provider.install_session(2, b"j" * 32)

    def run(operation, *args):
        """Run one provider operation to its step; return what it got."""
        got = []
        operation(*args, lambda *outcome: got.append(outcome))
        sim.run()
        [outcome] = got
        return outcome

    [genuine] = run(sender.attest, 1, b"payload")
    for bad in _bad_messages(genuine).values():
        if warm:
            assert run(receiver.check_transferable, bad.session_id, bad) == (False,)
        payload, error = run(receiver.verify, bad.session_id, bad)
        assert payload is None and isinstance(error, MacMismatchError)
        assert run(receiver.check_transferable, bad.session_id, bad) == (False,)
    assert run(receiver.verify, 1, genuine) == (b"payload", None)
