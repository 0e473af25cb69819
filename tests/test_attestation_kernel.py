"""Unit tests for the attestation kernel (Algorithm 1)."""

import os
import subprocess
import sys

import pytest

import repro
from repro.core import (
    AttestationKernel,
    AttestedMessage,
    ContinuityError,
    MacMismatchError,
    UnknownSessionError,
)
from repro.core import counters as counters_module
from repro.core.counters import CounterStore
from repro.core.keystore import Keystore, KeystoreError
from repro.crypto.hmac_engine import KeyedHmac
from repro.sim import Simulator

KEY = b"k" * 32


def make_pair(session=1):
    sender = AttestationKernel(device_id=10)
    receiver = AttestationKernel(device_id=20)
    sender.install_session(session, KEY)
    receiver.install_session(session, KEY)
    return sender, receiver


def test_attest_then_verify_roundtrip():
    sender, receiver = make_pair()
    msg = sender.attest(1, b"payload")
    assert receiver.verify(1, msg) == b"payload"


def test_counters_monotonic_per_message():
    sender, _ = make_pair()
    counters = [sender.attest(1, b"m").counter for _ in range(5)]
    assert counters == [0, 1, 2, 3, 4]


def test_verify_rejects_tampered_payload():
    sender, receiver = make_pair()
    msg = sender.attest(1, b"payload")
    forged = AttestedMessage(
        payload=b"evil", alpha=msg.alpha, session_id=msg.session_id,
        device_id=msg.device_id, counter=msg.counter,
    )
    with pytest.raises(MacMismatchError):
        receiver.verify(1, forged)
    # Failed verification must not advance the receive counter.
    assert receiver.counters.expected_recv(1) == 0
    assert receiver.verify(1, msg) == b"payload"


def test_verify_rejects_forged_alpha():
    sender, receiver = make_pair()
    msg = sender.attest(1, b"payload")
    forged = AttestedMessage(
        payload=msg.payload, alpha=b"\x00" * 32, session_id=msg.session_id,
        device_id=msg.device_id, counter=msg.counter,
    )
    with pytest.raises(MacMismatchError):
        receiver.verify(1, forged)


def test_verify_rejects_replay():
    """Non-equivocation lemma (iii): the same message is never accepted twice."""
    sender, receiver = make_pair()
    msg = sender.attest(1, b"payload")
    receiver.verify(1, msg)
    with pytest.raises(ContinuityError):
        receiver.verify(1, msg)


def test_verify_rejects_skipped_message():
    """Non-equivocation lemma (i): nothing sent earlier may be skipped."""
    sender, receiver = make_pair()
    sender.attest(1, b"first")
    second = sender.attest(1, b"second")
    with pytest.raises(ContinuityError) as info:
        receiver.verify(1, second)
    assert info.value.expected == 0
    assert info.value.received == 1


def test_verify_rejects_reordering():
    """Non-equivocation lemma (ii): no later message accepted before earlier."""
    sender, receiver = make_pair()
    first = sender.attest(1, b"first")
    second = sender.attest(1, b"second")
    with pytest.raises(ContinuityError):
        receiver.verify(1, second)
    assert receiver.verify(1, first) == b"first"
    assert receiver.verify(1, second) == b"second"


def test_equivocation_attempt_gets_distinct_counters():
    """A Byzantine sender cannot bind two different messages to one counter."""
    sender, receiver = make_pair()
    a = sender.attest(1, b"to-alice")
    b = sender.attest(1, b"to-bob")
    assert a.counter != b.counter
    # Forging b with a's counter breaks the MAC.
    forged = AttestedMessage(
        payload=b.payload, alpha=b.alpha, session_id=b.session_id,
        device_id=b.device_id, counter=a.counter,
    )
    with pytest.raises(MacMismatchError):
        receiver.verify(1, forged)


def test_transferable_authentication_third_party():
    """A forwarded attested message verifies at any key-holding party."""
    sender, receiver = make_pair()
    third = AttestationKernel(device_id=30)
    third.install_session(1, KEY)
    msg = sender.attest(1, b"payload")
    # Receiver consumes it in order...
    receiver.verify(1, msg)
    # ...and a third party can still evaluate the transferable check.
    assert third.check_transferable(1, msg)
    forged = AttestedMessage(
        payload=b"evil", alpha=msg.alpha, session_id=msg.session_id,
        device_id=msg.device_id, counter=msg.counter,
    )
    assert not third.check_transferable(1, forged)


def test_unknown_session_raises():
    """Every entry point refuses a session with no key before it keeps
    anything of it: the kernel's session table and the counter store
    cannot be grown by session ids a caller makes up."""
    sender, _ = make_pair(session=1)
    genuine = sender.attest(1, b"x")
    kernel = AttestationKernel(device_id=1, sim=Simulator())
    kernel.install_session(1, KEY)
    for session in (9, 2**40, -1):
        message = AttestedMessage(b"x", genuine.alpha, session, 10, 0)
        for call in (
            lambda: kernel.attest(session, b"x"),
            lambda: kernel.verify(session, message),
            lambda: kernel.check_transferable(session, message),
            lambda: kernel.attest_event(session, b"x", print),
            lambda: kernel.verify_event(session, message, print),
        ):
            with pytest.raises(UnknownSessionError, match=str(session)):
                call()
    assert kernel._sessions == {}
    assert kernel.counters.snapshot() == {}
    assert kernel.attest_count == kernel.verify_count == kernel.reject_count == 0
    assert kernel.hmac_engine.operations == 0
    # A session with a key gets its state on first use, once.
    kernel.attest(1, b"x")
    kernel.attest(1, b"y")
    assert list(kernel._sessions) == [1]
    assert kernel.counters.snapshot() == {1: (2, 0)}


def test_sessions_are_independent():
    kernel = AttestationKernel(device_id=1)
    kernel.install_session(1, KEY)
    kernel.install_session(2, b"q" * 32)
    m1 = kernel.attest(1, b"a")
    m2 = kernel.attest(2, b"a")
    assert m1.counter == 0 and m2.counter == 0
    assert m1.alpha != m2.alpha


def test_wire_bytes_accounts_for_trailer():
    sender, _ = make_pair()
    msg = sender.attest(1, b"x" * 100)
    assert msg.wire_bytes == 100 + 64 + 16


def test_keystore_rejects_key_rewrite_and_short_keys():
    store = Keystore(device_id=1)
    store.install(1, KEY)
    with pytest.raises(KeystoreError):
        store.install(1, b"z" * 32)
    with pytest.raises(KeystoreError):
        store.install(2, b"short")
    assert store.sessions() == [1]
    assert len(store) == 1


def test_keystore_unknown_session():
    store = Keystore(device_id=1)
    with pytest.raises(KeystoreError):
        store.mac_for(5)
    assert not store.has_session(5)


def test_counter_store_send_recv_independent():
    kernel = AttestationKernel(device_id=10)
    kernel.install_session(1, KEY)
    first, second = kernel.attest(1, b"a"), kernel.attest(1, b"b")
    assert (first.counter, second.counter) == (0, 1)
    counters = kernel.counters
    assert counters.expected_recv(1) == 0
    assert kernel.verify(1, first) == b"a"
    assert counters.expected_recv(1) == 1
    assert counters.snapshot() == {1: (2, 1)}


def test_counter_store_rejects_negative_session():
    counters = CounterStore()
    with pytest.raises(ValueError):
        counters.session(-1)
    assert counters.snapshot() == {}
    kernel = AttestationKernel(device_id=10)
    with pytest.raises(UnknownSessionError):
        kernel.attest(-1, b"x")
    assert kernel.counters.snapshot() == {}


def test_counter_store_builds_one_record_per_session(monkeypatch):
    built = []
    record = counters_module._SessionCounters

    def counting():
        built.append(record())
        return built[-1]

    monkeypatch.setattr(counters_module, "_SessionCounters", counting)
    sender, receiver = make_pair(session=1)
    for kernel in (sender, receiver):
        kernel.install_session(2, KEY)
    for _ in range(3):
        for session in (1, 2):
            message = sender.attest(session, b"m")
            receiver.counters.expected_recv(session)
            receiver.verify(session, message)
    assert len(built) == 4  # one per (kernel, session)
    assert sender.counters.snapshot() == {1: (3, 0), 2: (3, 0)}
    assert receiver.counters.snapshot() == {1: (0, 3), 2: (0, 3)}


def test_pipelined_attest_verify_charges_time():
    sim = Simulator()
    sender = AttestationKernel(10, sim)
    receiver = AttestationKernel(20, sim)
    sender.install_session(1, KEY)
    receiver.install_session(1, KEY)
    result = {}

    def attested(msg):
        result["t_attest"] = sim.now
        receiver.verify_event(1, msg, verified)

    def verified(payload, error):
        result.update(payload=payload, error=error, t_total=sim.now)

    sender.attest_event(1, b"p" * 64, attested)
    sim.run()
    assert result["payload"] == b"p" * 64 and result["error"] is None
    assert 0 < result["t_attest"] < result["t_total"]


def test_pipelined_verify_failure_propagates():
    sim = Simulator()
    sender = AttestationKernel(10, sim)
    receiver = AttestationKernel(20, sim)
    sender.install_session(1, KEY)
    receiver.install_session(1, KEY)

    outcomes = []

    def attested(msg):
        forged = AttestedMessage(
            payload=b"evil", alpha=msg.alpha, session_id=1,
            device_id=msg.device_id, counter=msg.counter,
        )
        receiver.verify_event(
            1, forged, lambda payload, error: outcomes.append((payload, error)))

    sender.attest_event(1, b"data", attested)
    sim.run()
    [(payload, error)] = outcomes
    assert payload is None and isinstance(error, MacMismatchError)


def test_pipelined_verify_runs_one_mac_check_per_message(monkeypatch):
    """Nothing is parked or batched: each ``verify_event`` settles with
    exactly one ``KeyedHmac.mac`` call, at its own completion, even
    with several checks queued on the pipeline at once."""
    sim = Simulator()
    sender = AttestationKernel(10, sim)
    receiver = AttestationKernel(20, sim)
    sender.install_session(1, KEY)
    receiver.install_session(1, KEY)
    messages = [sender.attest(1, bytes([index]) * 64) for index in range(4)]
    checked = []
    mac = KeyedHmac.mac

    def counting(state, encoded):
        checked.append(sim.now)
        return mac(state, encoded)

    monkeypatch.setattr(KeyedHmac, "mac", counting)
    outcomes = []
    for message in messages:
        receiver.verify_event(
            1, message, lambda payload, error: outcomes.append((payload, error)))
    assert checked == []  # queued, not yet checked
    sim.run()
    assert outcomes == [(m.payload, None) for m in messages]
    assert len(checked) == 4 and checked == sorted(set(checked))
    with pytest.raises(UnknownSessionError):
        receiver.verify_event(2, messages[0], print)  # still fails fast


def test_importing_repro_starts_no_executor_machinery():
    """The worker pool is gone, and with it the import that cost every
    run ~1 MiB of peak RSS (run in a fresh interpreter: the test
    session itself imports hypothesis, which imports it anyway)."""
    probe = ("import sys, repro, repro.api, repro.systems; "
             "print('concurrent.futures' in sys.modules)")
    src = os.path.dirname(os.path.dirname(repro.__file__))
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "False"


def test_pipelined_requires_simulator():
    kernel = AttestationKernel(1)
    kernel.install_session(1, KEY)
    with pytest.raises(RuntimeError):
        kernel.attest_event(1, b"x", print)
