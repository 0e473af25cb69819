"""Property-based tests (hypothesis) on core data structures and
invariants: attestation, counters, logs, memory, packets, crypto."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AttestationKernel, AttestedMessage, AttestationError
from repro.crypto.hashing import canonical_bytes, sha256
from repro.crypto.hmac_engine import hmac_sha256, hmac_verify
from repro.stack.memory import HugePageArea
from repro.systems.peer_review import TamperEvidentLog
from repro.tee.sgx_memory import EnclaveMemoryModel
from repro.api.transform import WrappedMessage
from repro.verification.lemmas import (
    lemma_no_double_accept,
    lemma_no_lost_messages,
    lemma_no_reordering,
    lemma_transferable_authentication,
)
from repro.verification.model import Event

KEY = b"property-test-key-0123456789abcd"

payloads = st.binary(min_size=0, max_size=256)


# ---------------------------------------------------------------------------
# Attestation kernel
# ---------------------------------------------------------------------------

@given(st.lists(payloads, min_size=1, max_size=20))
@settings(max_examples=50, deadline=None)
def test_attest_verify_roundtrip_any_payload_sequence(items):
    """In-order delivery of any payload sequence verifies completely."""
    sender = AttestationKernel(1)
    receiver = AttestationKernel(2)
    sender.install_session(1, KEY)
    receiver.install_session(1, KEY)
    for item in items:
        message = sender.attest(1, item)
        assert receiver.verify(1, message) == item
    assert receiver.counters.expected_recv(1) == len(items)


@given(payloads, st.binary(min_size=1, max_size=64))
@settings(max_examples=50, deadline=None)
def test_any_payload_mutation_is_rejected(payload, suffix):
    """Appending/replacing bytes always breaks the MAC."""
    sender = AttestationKernel(1)
    receiver = AttestationKernel(2)
    sender.install_session(1, KEY)
    receiver.install_session(1, KEY)
    message = sender.attest(1, payload)
    mutated = replace(message, payload=payload + suffix)
    with pytest.raises(AttestationError):
        receiver.verify(1, mutated)


@given(st.integers(min_value=0, max_value=500), st.integers(min_value=1, max_value=1000))
@settings(max_examples=50, deadline=None)
def test_counter_metadata_mutation_rejected(counter_delta, device_delta):
    sender = AttestationKernel(1)
    receiver = AttestationKernel(2)
    sender.install_session(1, KEY)
    receiver.install_session(1, KEY)
    message = sender.attest(1, b"x")
    mutated = replace(
        message,
        counter=message.counter + counter_delta + 1,
        device_id=message.device_id + device_delta,
    )
    with pytest.raises(AttestationError):
        receiver.verify(1, mutated)


@given(st.lists(st.sampled_from(["send", "recv"]), max_size=60))
@settings(max_examples=60, deadline=None)
def test_counters_monotone_under_any_op_sequence(ops):
    """send and recv counters never decrease; send values are unique.

    Driven through the kernel's live path, one session looped back: a
    send is an ``attest``, a receive ``verify``s the oldest message not
    yet received, or replays the last one received when none is left
    (refused, and no counter moves)."""
    kernel = AttestationKernel(device_id=1)
    kernel.install_session(1, b"k" * 32)
    counters = kernel.counters
    in_flight = []
    received = None
    seen_send = set()
    last_send = -1
    last_recv = -1
    for op in ops:
        if op == "send":
            message = kernel.attest(1, b"m")
            value = message.counter
            assert value not in seen_send
            assert value > last_send
            seen_send.add(value)
            last_send = value
            in_flight.append(message)
        elif in_flight:
            expected = counters.expected_recv(1)
            assert expected > last_recv
            received = in_flight.pop(0)
            kernel.verify(1, received)
            last_recv = expected
        elif received is not None:
            with pytest.raises(AttestationError):
                kernel.verify(1, received)
        assert counters.expected_recv(1) == last_recv + 1
        assert counters.snapshot()[1][0] == last_send + 1


# ---------------------------------------------------------------------------
# Bridge: real kernel executions satisfy the verification lemmas
# ---------------------------------------------------------------------------

@given(
    st.lists(
        st.tuples(st.sampled_from(["deliver", "replay", "skip"]),
                  st.integers(min_value=0, max_value=5)),
        max_size=20,
    )
)
@settings(max_examples=50, deadline=None)
def test_real_executions_satisfy_nonequivocation_lemmas(schedule):
    """Drive the real attestation kernel with an adversarial delivery
    schedule and check the produced trace against the paper's lemmas."""
    sender = AttestationKernel(1)
    receiver = AttestationKernel(2)
    sender.install_session(1, KEY)
    receiver.install_session(1, KEY)
    history: list[AttestedMessage] = []
    trace: list[Event] = []
    for action, index in schedule:
        if action == "skip" or not history or index >= len(history):
            message = sender.attest(1, f"m{len(history)}".encode())
            history.append(message)
            trace.append(Event("send", message.payload.decode(), message.counter))
            continue
        candidate = history[index]
        try:
            receiver.verify(1, candidate)
        except AttestationError:
            continue
        trace.append(
            Event("accept", candidate.payload.decode(), candidate.counter)
        )
    trace_t = tuple(trace)
    assert lemma_transferable_authentication(trace_t)
    assert lemma_no_double_accept(trace_t)
    assert lemma_no_reordering(trace_t)
    assert lemma_no_lost_messages(trace_t)


# ---------------------------------------------------------------------------
# Hash-chained log
# ---------------------------------------------------------------------------

@given(
    st.lists(st.binary(min_size=1, max_size=32), min_size=1, max_size=20),
    st.data(),
)
@settings(max_examples=50, deadline=None)
def test_any_log_tamper_is_detected(entries, data):
    log = TamperEvidentLog()
    for entry in entries:
        log.append("send", entry)
    assert log.verify_chain() is None
    index = data.draw(st.integers(min_value=0, max_value=len(entries) - 1))
    original = log.records[index].data
    replacement = data.draw(
        st.binary(min_size=1, max_size=32).filter(lambda b: b != original)
    )
    log.tamper(index, replacement)
    assert log.verify_chain() == index


# ---------------------------------------------------------------------------
# Canonical hashing / HMAC
# ---------------------------------------------------------------------------

@given(st.lists(payloads, max_size=8), st.lists(payloads, max_size=8))
@settings(max_examples=100, deadline=None)
def test_canonical_encoding_injective_on_part_lists(a, b):
    """Distinct part lists never encode identically (length prefixes)."""
    if a != b:
        assert canonical_bytes(a) != canonical_bytes(b)
    else:
        assert canonical_bytes(a) == canonical_bytes(b)


@given(payloads, payloads)
@settings(max_examples=80, deadline=None)
def test_hmac_verifies_iff_inputs_match(m1, m2):
    mac = hmac_sha256(KEY, m1)
    assert hmac_verify(KEY, mac, m2) == (m1 == m2)


@given(st.lists(st.one_of(st.binary(max_size=16), st.text(max_size=8),
                          st.integers(), st.booleans()), max_size=6))
@settings(max_examples=80, deadline=None)
def test_sha256_stable_over_mixed_types(parts):
    assert sha256(*parts) == sha256(*parts)
    assert len(sha256(*parts)) == 32


# ---------------------------------------------------------------------------
# ibv memory
# ---------------------------------------------------------------------------

@given(
    st.integers(min_value=0, max_value=4000),
    st.binary(min_size=1, max_size=96),
)
@settings(max_examples=80, deadline=None)
def test_memory_roundtrip_any_offset(offset, data):
    region = HugePageArea().allocate(8192)
    address = region.base + offset
    region.write(address, data)
    assert region.read(address, len(data)) == data


@given(st.integers(min_value=1, max_value=50))
@settings(max_examples=30, deadline=None)
def test_allocations_never_overlap(n):
    area = HugePageArea()
    regions = [area.allocate(1) for _ in range(n)]
    spans = sorted((r.base, r.base + r.size) for r in regions)
    for (a_start, a_end), (b_start, b_end) in zip(spans, spans[1:]):
        assert a_end <= b_start


# ---------------------------------------------------------------------------
# EPC paging model
# ---------------------------------------------------------------------------

@given(st.lists(st.integers(min_value=0, max_value=10**7), min_size=1,
                max_size=200))
@settings(max_examples=40, deadline=None)
def test_epc_accounting_invariants(addresses):
    model = EnclaveMemoryModel(epc_bytes=64 * 4096)
    for address in addresses:
        cost = model.access(address)
        assert cost > 0
    assert model.hits + model.misses >= len(addresses)
    assert model.resident_pages <= model.capacity_pages


# ---------------------------------------------------------------------------
# Transform wire format
# ---------------------------------------------------------------------------

@given(payloads, st.booleans())
@settings(max_examples=80, deadline=None)
def test_wrapped_message_roundtrip_any_body(body, with_receiver):
    wrapped = WrappedMessage(
        body=body,
        sender_state=sha256("s", body),
        receiver_state=sha256("r") if with_receiver else b"",
    )
    assert WrappedMessage.decode(wrapped.encode()) == wrapped
