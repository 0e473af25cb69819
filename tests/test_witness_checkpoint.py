"""The witness checkpoint (PeerReview, App. C.5): audits examine only the
entries not yet vouched for, report each fault once, and still catch
everything a from-scratch audit of the whole log would."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hashing import sha256
from repro.systems import peer_review
from repro.systems.peer_review import (
    PeerReviewBehaviour,
    PeerReviewSystem,
    TamperEvidentLog,
    Witness,
    link_authenticator,
    reference_execute,
)

ROLES = {"source": ("send", "recv"), "child": ("recv", "send")}
REWRITTEN = "log rewritten/truncated below audited entry"


def encode(seq, text):
    return f"{seq}|{text}".encode()


def honest_log(chunks, role="source"):
    chunk_direction, result_direction = ROLES[role]
    log = TamperEvidentLog()
    for seq in range(chunks):
        log.append(chunk_direction, encode(seq, f"chunk-{seq}"))
        log.append(result_direction,
                   encode(seq, reference_execute(f"chunk-{seq}")))
    return log


def reference_audit(log, role):
    """The from-scratch audit: re-hash the whole chain from the genesis
    value and replay every entry.  Reports every broken link, a superset
    of the first-break-only ``verify_chain()`` the pre-checkpoint
    ``Witness.audit`` used."""
    chunk_direction = ROLES[role][0]
    faults = set()
    prev = b"\x00" * 32
    expected_results = {}
    for record in log.records:
        if record.authenticator != sha256(prev, record.direction, record.data):
            faults.add(f"hash chain broken at entry {record.index}")
        prev = record.authenticator
        seq, text = record.data.decode().split("|", 1)
        if record.direction == chunk_direction:
            expected_results[int(seq)] = reference_execute(text)
        else:
            expected = expected_results.get(int(seq))
            if expected is not None and text != expected:
                faults.add(
                    f"entry {record.index}: logged result {text!r} "
                    f"diverges from reference {expected!r}"
                )
    return faults


# ---------------------------------------------------------------------------
# Each fault once
# ---------------------------------------------------------------------------

def test_broken_link_reported_by_one_audit_only():
    system = PeerReviewSystem(
        "tnic", audit=True, behaviour=PeerReviewBehaviour(tamper_log=True)
    )
    system.run_workload(chunks=5)
    assert system.witness.audits_performed == 5
    broken = [f for f in system.detected_faults() if "hash chain broken" in f]
    assert broken == ["hash chain broken at entry 3"]


def test_deviating_results_reported_once_each():
    system = PeerReviewSystem(
        "tnic", audit=True, audit_children=True,
        behaviour=PeerReviewBehaviour(wrong_execution=True),
    )
    system.run_workload(chunks=4)
    faults = system.detected_faults()
    assert len(faults) == len(set(faults))
    # One deviating result per chunk, in the source's log and child0's own.
    assert sum("diverges" in f for f in faults) == 8


def test_checkpoint_advances_with_the_log():
    witness = Witness()
    log = honest_log(3)
    assert witness.audited_until == 0
    assert witness.head == peer_review.GENESIS
    assert witness.audit(log) == []
    assert witness.audited_until == 6
    assert witness.head == log.records[-1].authenticator


# ---------------------------------------------------------------------------
# Rewrites below the checkpoint
# ---------------------------------------------------------------------------

def test_truncation_below_checkpoint_reported():
    witness = Witness()
    log = honest_log(3)
    assert witness.audit(log) == []
    del log.records[4:]
    assert log.verify_chain() is None  # a full re-hash sees nothing wrong
    assert witness.audit(log) == [f"{REWRITTEN} 6"]
    # The truncated history is now the audited one; nothing to repeat.
    assert witness.audited_until == 4
    assert witness.audit(log) == []


def test_rechained_head_reported():
    """The node replaces the last audited entry and re-chains it, so the
    log verifies from genesis — but not against the head the witness
    holds."""
    witness = Witness()
    log = honest_log(2)
    assert witness.audit(log) == []
    old = log.records.pop()
    data = encode(1, reference_execute("chunk-1") + "-again")
    log.append(old.direction, data)
    assert log.records[-1].authenticator != witness.head
    assert log.verify_chain() is None
    faults = witness.audit(log)
    assert faults[0] == f"{REWRITTEN} 4"
    assert any("entry 3: logged result" in fault for fault in faults[1:])


def test_tamper_of_audited_entry_reported_at_next_audit():
    witness = Witness()
    log = honest_log(3)
    assert witness.audit(log) == []
    log.tamper(0, encode(0, "forged-content"))
    log.append("send", encode(3, "chunk-3"))
    faults = witness.audit(log)
    assert faults == [
        f"{REWRITTEN} 6",
        "hash chain broken at entry 0",
        f"entry 1: logged result {reference_execute('chunk-0')!r} "
        f"diverges from reference {reference_execute('forged-content')!r}",
    ]
    assert witness.audited_until == 7
    assert witness.audit(log) == []


# ---------------------------------------------------------------------------
# Differential: checkpointed witness vs from-scratch reference
# ---------------------------------------------------------------------------

SEQS = st.integers(min_value=0, max_value=3)
CHUNK_TEXTS = st.sampled_from(["a", "b"])
RESULT_TEXTS = st.sampled_from(
    [reference_execute("a"), reference_execute("b"), "out:deviated"]
)
OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("chunk"), SEQS, CHUNK_TEXTS),
        st.tuples(st.just("result"), SEQS, RESULT_TEXTS),
        st.tuples(st.just("tamper"), st.integers(min_value=0), SEQS,
                  st.one_of(CHUNK_TEXTS, RESULT_TEXTS)),
        st.tuples(st.just("truncate"), st.integers(min_value=0)),
        st.tuples(st.just("audit")),
    ),
    max_size=40,
)


@given(st.sampled_from(sorted(ROLES)), OPERATIONS)
@settings(max_examples=300, deadline=None)
def test_checkpointed_audit_matches_from_scratch_audit(role, operations):
    chunk_direction, result_direction = ROLES[role]
    witness = Witness(role)
    log = TamperEvidentLog()
    reported = []        # every fault the witness returned, in order
    reference = set()    # union of the from-scratch audits at the same times
    vouched = []         # the log as the witness last saw it
    rewrites_expected = 0
    for op, *args in operations + [("audit",)]:
        if op == "chunk":
            log.append(chunk_direction, encode(*args))
        elif op == "result":
            log.append(result_direction, encode(*args))
        elif op == "tamper" and log.records:
            position, seq, text = args
            log.tamper(position % len(log.records), encode(seq, text))
        elif op == "truncate":
            del log.records[args[0] % (len(log.records) + 1):]
        elif op == "audit":
            rewrites_expected += log.records[:len(vouched)] != vouched
            reported.extend(witness.audit(log))
            reference |= reference_audit(log, role)
            vouched = list(log.records)
            assert witness.audited_until == len(vouched)
    per_entry = [fault for fault in reported if not fault.startswith(REWRITTEN)]
    assert len(per_entry) == len(set(per_entry))  # each fault once
    assert set(per_entry) == reference
    assert len(reported) - len(per_entry) == rewrites_expected


# ---------------------------------------------------------------------------
# Linear work (counts, not wall clock)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("chunks", [50, 200])
def test_audit_work_is_linear_in_log_length(chunks, monkeypatch):
    """Over a whole run every log entry is hashed twice — when appended
    and by the one audit that vouches for it — and every chunk entry is
    replayed once, for all three witnesses.  A link hash and a replay
    each make one SHA-256 call, and the generic encoder makes none."""
    calls = {"sha256": 0, "replay": 0, "generic": 0}

    def counting_link_authenticator(prev, direction, data):
        calls["sha256"] += 1
        return link_authenticator(prev, direction, data)

    def counting_reference_execute(content):
        calls["sha256"] += 1
        calls["replay"] += 1
        return reference_execute(content)

    def counting_generic_sha256(*parts):
        calls["generic"] += 1
        return sha256(*parts)

    monkeypatch.setattr(peer_review, "link_authenticator",
                        counting_link_authenticator)
    monkeypatch.setattr(peer_review, "reference_execute",
                        counting_reference_execute)
    monkeypatch.setattr(peer_review, "sha256", counting_generic_sha256)
    system = PeerReviewSystem("tnic", audit=True, audit_children=True)
    system.run_workload(chunks)
    assert system.detected_faults() == []
    logs = [system.source.log] + [c.log for c in system.child_nodes.values()]
    entries = sum(len(log.records) for log in logs)
    assert entries == 7 * chunks
    children_execute = 2 * chunks   # each child computes each result once
    witnesses_replay = 3 * chunks   # one chunk entry per chunk in each log
    assert calls["replay"] == children_execute + witnesses_replay
    assert calls["sha256"] == 2 * entries + calls["replay"]
    assert calls["generic"] == 0

