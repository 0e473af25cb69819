"""An attested message carries its canonical encoding — and only its own.

The encoding α is a MAC of is derived once per message and carried from
attest to every check.  These tests pin the half of the argument in
docs/performance.md ("Why caching cannot mask equivocation") that the
carried encoding adds: it is a pure function of the message's *own*
fields, so no way of building a message out of a genuine one — a
constructor, ``dataclasses.replace``, a wire decode — inherits the
genuine one's encoding or its cached verdict.
"""

import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.core.attestation as attestation
from repro.api import Cluster, auth_send
from repro.api.multicast import decode_attested, encode_attested
from repro.api.ops import recv
from repro.byzantine.adversary import forge_attack, impersonation_attack
from repro.cli import main
from repro.core.attestation import (
    AttestationError,
    AttestationKernel,
    AttestedMessage,
    MacMismatchError,
)
from repro.crypto import hmac_verify, reset_verification_cache, sha256
from repro.crypto.hashing import canonical_bytes
from repro.systems.bft import BftCounter
from repro.systems.peer_review import link_authenticator, reference_execute

KEY = b"session-key-of-32-bytes-length!!"


def _pair():
    sender, receiver = AttestationKernel(1), AttestationKernel(2)
    for kernel in (sender, receiver):
        kernel.install_session(5, KEY)
        kernel.install_session(6, KEY)
    return sender, receiver


def test_attest_seeds_the_encoding_with_the_bytes_it_maced():
    sender, receiver = _pair()
    message = sender.attest(5, b"payload")
    assert message._encoded == canonical_bytes(message.mac_inputs())
    assert message.encoded() is message._encoded  # carried, not re-derived
    assert receiver.check_transferable(5, message)
    # Not part of the value: an equal message built by hand is equal,
    # and the encoding cannot be handed to the constructor.
    rebuilt = AttestedMessage(message.payload, message.alpha,
                              message.session_id, message.device_id,
                              message.counter)
    assert rebuilt == message and rebuilt._encoded is None
    assert "_encoded" not in repr(message)
    with pytest.raises(TypeError):
        AttestedMessage(b"p", b"a", 5, 1, 0, b"chosen encoding")


@pytest.mark.parametrize("change", [
    {"payload": b"another payload"},
    {"counter": 1},
    {"device_id": 9},
    {"session_id": 6},
    {"alpha": b"\x00" * 32},
])
def test_replace_drops_the_encoding_and_the_copy_fails_verification(change):
    reset_verification_cache()
    sender, receiver = _pair()
    genuine = sender.attest(5, b"payload")
    assert receiver.check_transferable(5, genuine)  # verdict now cached
    mutated = dataclasses.replace(genuine, **change)
    assert mutated._encoded is None
    assert mutated.encoded() == canonical_bytes(mutated.mac_inputs())
    assert mutated.encoded() is not genuine.encoded()
    assert not receiver.check_transferable(5, mutated)
    with pytest.raises(AttestationError):
        receiver.verify(5, mutated)
    assert receiver.verify(5, genuine) == b"payload"
    with pytest.raises(ValueError):
        dataclasses.replace(genuine, _encoded=b"chosen encoding")


def test_every_forging_constructor_site_is_still_rejected(capsys):
    reset_verification_cache()
    sender, receiver = _pair()
    genuine = sender.attest(5, b"genuine")
    assert receiver.check_transferable(5, genuine)
    # byzantine/adversary.py: random-alpha forgeries and relabelled
    # messages MACed under the attacker's own key.
    assert forge_attack(receiver, 5).defended
    assert impersonation_attack(receiver, 5).defended
    # api/multicast.py: a frame decoded off the wire derives its own
    # encoding, genuine or tampered.
    frame = encode_attested(genuine)
    decoded = decode_attested(frame)
    assert decoded == genuine and decoded._encoded is None
    assert receiver.check_transferable(5, decoded)
    tampered = decode_attested(frame[:-1] + bytes([frame[-1] ^ 1]))
    assert tampered.alpha == genuine.alpha
    assert not receiver.check_transferable(5, tampered)
    # cli.py: a genuine alpha under a forged payload.
    assert main(["demo"]) == 0
    assert "forged message accepted: False" in capsys.readouterr().out


def test_a_message_rebuilt_from_the_wire_derives_its_own_encoding():
    cluster = Cluster(["a", "b"])
    conn_a, conn_b = cluster.connect("a", "b")
    cluster.run(auth_send(conn_a, b"over the wire"))
    cluster.run()
    received = recv(conn_b)["message"]
    assert received.payload == b"over the wire"
    # Verification MACed a transient encoding: the delivered message
    # holds its payload once, and still derives its encoding on demand.
    assert received._encoded is None
    assert received.encoded() == canonical_bytes(received.mac_inputs())


#: Empty, short, and several 4 KiB MTUs long (a repeated chunk).
PAYLOADS = st.one_of(
    st.just(b""),
    st.binary(max_size=80),
    st.builds(lambda chunk, times: chunk * times,
              st.binary(min_size=1, max_size=64), st.integers(256, 1024)),
)
#: Counters a session reaches, and the top half of the u64 range.
COUNTERS = st.one_of(st.integers(0, 2**16), st.integers(2**63, 2**64 - 1))
WIRE_IDS = st.integers(0, 2**32 - 1)


@settings(max_examples=200, deadline=None)
@given(payload=PAYLOADS, counter=st.one_of(COUNTERS, st.integers()),
       device_id=st.integers(), session_id=st.integers())
@example(payload=b"", counter=2**63, device_id=0, session_id=0)
def test_the_kernel_encoder_is_the_canonical_encoding(
        payload, counter, device_id, session_id):
    tail = attestation.session_tail(device_id, session_id)
    assert attestation.encode_mac_input(payload, counter, tail) == \
        canonical_bytes((payload, counter, device_id, session_id))


@pytest.mark.parametrize("payload, counter", [
    ("text", 3),          # str parts are UTF-8 encoded
    (b"bytes", True),     # a bool is one byte, not the digit 1
])
def test_a_field_of_another_type_takes_the_generic_encoding(payload, counter):
    assert attestation.encode_mac_input(
        payload, counter, attestation.session_tail(1, 2)) == \
        canonical_bytes((payload, counter, 1, 2))


@pytest.mark.parametrize("payload, counter", [
    (memoryview(b"view"), 0),   # refused at the digest boundary
    (bytearray(b"ba"), 0),
    (b"bytes", 1.5),
])
def test_a_field_the_generic_encoding_refuses_is_refused(payload, counter):
    with pytest.raises(TypeError):
        canonical_bytes((payload, counter))
    with pytest.raises(TypeError):
        attestation.encode_mac_input(payload, counter,
                                     attestation.session_tail(1, 2))


@settings(max_examples=60, deadline=None)
@given(payload=PAYLOADS, counter=COUNTERS, device_id=WIRE_IDS,
       session_id=WIRE_IDS)
def test_an_attested_message_verifies_generically_and_off_the_wire(
        payload, counter, device_id, session_id):
    kernel = AttestationKernel(device_id)
    kernel.install_session(session_id, KEY)
    kernel.counters.session(session_id).send_cnt = counter
    message = kernel.attest(session_id, payload)
    assert message.counter == counter
    assert hmac_verify(KEY, message.alpha,
                       payload, counter, device_id, session_id)
    rebuilt = decode_attested(encode_attested(message))
    assert rebuilt == message and rebuilt._encoded is None
    assert rebuilt.encoded() == message.encoded()


def test_bft_run_derives_one_encoding_per_attested_message(monkeypatch):
    derivations = []
    encoder = attestation.encode_mac_input

    def counting(payload, counter, tail):
        derivations.append(counter)
        return encoder(payload, counter, tail)

    monkeypatch.setattr(attestation, "encode_mac_input", counting)
    system = BftCounter("tnic", f=1, seed=0)
    system.run_workload(50, pipeline_depth=4)
    system.sim.run(until=system.sim.now + 1_000.0)  # straggler checks
    kernels = [provider.kernel for provider in system.providers.values()]
    assert sum(kernel.attest_count for kernel in kernels) == 150
    # 3 attests and 6 checks per request: every check reuses the bytes
    # the attest derived.
    assert len(derivations) == 150
    assert sum(auth.expected_counter
               for replica in system.replicas.values()
               for auth in replica.authenticators.values()) == 300


def _off_the_wire(message):
    """*message* as a receiver rebuilds it: no carried encoding."""
    return decode_attested(encode_attested(message))


@pytest.mark.parametrize("forged", [
    {"device_id": 9},
    {"device_id": True},     # equal to the sender's id 1, encoded apart
    {"session_id": 6},
])
def test_a_warmed_session_rejects_a_message_with_forged_ids(
        forged, monkeypatch):
    sender, receiver = _pair()
    tails = []
    tail = attestation.session_tail

    def counting(device_id, session_id):
        tails.append((device_id, session_id))
        return tail(device_id, session_id)

    monkeypatch.setattr(attestation, "session_tail", counting)
    for payload in (b"first", b"second"):
        assert receiver.verify(5, _off_the_wire(
            sender.attest(5, payload))) == payload
    # The sender's own tail, the receiver's own, and the peer's, for
    # the first message only.
    assert tails == [(1, 5), (2, 5), (1, 5)]
    genuine = sender.attest(5, b"third")
    forgery = dataclasses.replace(_off_the_wire(genuine), **forged)
    with pytest.raises(MacMismatchError):
        receiver.verify(5, forgery)
    assert receiver.verify(5, _off_the_wire(genuine)) == b"third"
    assert receiver.verify_count == 3 and receiver.reject_count == 1


LINK_PREVS = st.one_of(st.binary(min_size=32, max_size=32), st.binary())
DIRECTIONS = st.one_of(st.sampled_from(["send", "recv"]), st.text())


@settings(max_examples=200, deadline=None)
@given(prev=LINK_PREVS, direction=DIRECTIONS, data=st.binary())
@example(prev=b"\x00" * 32, direction="send", data=b"")
@example(prev=b"\x00" * 31, direction="recv", data=b"0|chunk-0")
@example(prev=b"\x00" * 32, direction="sénd", data=b"x")
# Parts of other types take the generic encoding.
@example(prev=b"\x00" * 32, direction=("send",), data=b"x")
@example(prev=b"\x00" * 32, direction="send", data="text data")
@example(prev=b"\x00" * 32, direction="recv", data=7)
@example(prev="\x00" * 32, direction="send", data=b"x")
def test_the_log_link_encoder_is_the_generic_hash(prev, direction, data):
    assert link_authenticator(prev, direction, data) == \
        sha256(prev, direction, data)


@settings(max_examples=200, deadline=None)
@given(content=st.text())
@example(content="")
@example(content="chunk-0|out:é")
@example(content="流れ|🙂")
def test_the_reference_result_is_the_generic_hash(content):
    assert reference_execute(content) == \
        "out:" + sha256(content).hex()[:12]
