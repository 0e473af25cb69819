"""Tests for PeerReview accountability (Appendix C.5, Algorithm 5)."""

import pytest

from repro.systems.peer_review import (
    PeerReviewBehaviour,
    PeerReviewSystem,
    TamperEvidentLog,
    reference_execute,
)


def test_happy_path_streams_all_chunks():
    system = PeerReviewSystem("tnic", audit=True)
    metrics = system.run_workload(chunks=5)
    assert metrics.committed == 5
    assert system.detected_faults() == []
    assert system.witness.audits_performed == 5


def test_audit_disabled_performs_no_audits():
    system = PeerReviewSystem("tnic", audit=False)
    system.run_workload(chunks=3)
    assert system.witness.audits_performed == 0


def test_audit_adds_bounded_overhead():
    """'the audit protocol itself consumes about 25% (17us) of the
    overall latency, leading to 1.33x performance slowdown'."""
    with_audit = PeerReviewSystem("tnic", audit=True).run_workload(8)
    without = PeerReviewSystem("tnic", audit=False).run_workload(8)
    slowdown = without.throughput_ops / with_audit.throughput_ops
    assert 1.05 < slowdown < 1.8
    extra = with_audit.mean_latency_us - without.mean_latency_us
    assert extra == pytest.approx(17.0, abs=4.0)


def test_deviating_execution_detected_by_witness():
    """A child that computes a wrong result is exposed when the witness
    replays the source's log against the reference implementation."""
    system = PeerReviewSystem(
        "tnic", audit=True,
        behaviour=PeerReviewBehaviour(wrong_execution=True),
    )
    system.run_workload(chunks=2)
    faults = system.detected_faults()
    assert any("diverges from reference" in fault for fault in faults)


def test_tampered_log_breaks_hash_chain():
    system = PeerReviewSystem(
        "tnic", audit=True,
        behaviour=PeerReviewBehaviour(tamper_log=True),
    )
    system.run_workload(chunks=3)
    faults = system.detected_faults()
    assert any("hash chain broken" in fault for fault in faults)


def test_no_false_positives_without_audit():
    system = PeerReviewSystem(
        "tnic", audit=False,
        behaviour=PeerReviewBehaviour(wrong_execution=True),
    )
    system.run_workload(chunks=2)
    # Faults happen but go undetected without the audit protocol —
    # accountability is detection, not prevention.
    assert system.detected_faults() == []


def test_tnic_outperforms_tee_versions():
    """Fig 12: TNIC 3-5x better throughput than SGX / AMD-sev."""
    results = {
        name: PeerReviewSystem(name, audit=True, seed=4).run_workload(6)
        for name in ("tnic", "sgx", "amd-sev", "ssl-lib")
    }
    tnic = results["tnic"].throughput_ops
    assert tnic > 1.5 * results["sgx"].throughput_ops
    assert tnic > 1.3 * results["amd-sev"].throughput_ops
    assert results["ssl-lib"].throughput_ops > tnic


def test_children_count_validated():
    with pytest.raises(ValueError):
        PeerReviewSystem(children=0)


# ---------------------------------------------------------------------------
# Tamper-evident log unit tests
# ---------------------------------------------------------------------------

def test_log_chain_intact_after_appends():
    log = TamperEvidentLog()
    for i in range(5):
        log.append("send", f"m{i}".encode())
    assert log.verify_chain() is None
    assert [r.index for r in log.records] == list(range(5))


def test_log_tamper_detected_at_exact_index():
    log = TamperEvidentLog()
    for i in range(5):
        log.append("send", f"m{i}".encode())
    log.tamper(2, b"rewritten")
    assert log.verify_chain() == 2


def test_log_broken_links_chain_from_held_head():
    """Suffix verification: only entries from *start* are hashed, the
    first of them against the head the auditor holds."""
    log = TamperEvidentLog()
    for i in range(6):
        log.append("recv", f"m{i}".encode())
    head = log.records[2].authenticator
    log.tamper(1, b"below the suffix")
    log.tamper(4, b"inside the suffix")
    assert list(log.broken_links(3, head)) == [4]
    assert list(log.broken_links(3, b"\x01" * 32)) == [3, 4]
    assert list(log.broken_links()) == [1, 4]
    assert log.verify_chain() == 1


def test_reference_execute_deterministic():
    assert reference_execute("abc") == reference_execute("abc")
    assert reference_execute("abc") != reference_execute("abd")


def test_child_witnesses_audit_child_logs():
    system = PeerReviewSystem("tnic", audit=True, audit_children=True)
    system.run_workload(chunks=3)
    assert system.detected_faults() == []
    for witness in system.child_witnesses.values():
        assert witness.audits_performed == 3


def test_child_witness_catches_deviating_child():
    """With the full witness set, the deviating child is caught by ITS
    OWN witness replaying the child's log (not only via the source)."""
    system = PeerReviewSystem(
        "tnic", audit=True, audit_children=True,
        behaviour=PeerReviewBehaviour(wrong_execution=True),
    )
    system.run_workload(chunks=2)
    faults = system.detected_faults()
    assert any(fault.startswith("child0:") for fault in faults)


def test_witness_role_validated():
    from repro.systems.peer_review import Witness

    with pytest.raises(ValueError, match="role"):
        Witness(role="bystander")


def test_child_audits_add_proportional_overhead():
    single = PeerReviewSystem("tnic", audit=True).run_workload(5)
    full = PeerReviewSystem(
        "tnic", audit=True, audit_children=True
    ).run_workload(5)
    extra = full.mean_latency_us - single.mean_latency_us
    # Two extra audits of ~17us each per chunk.
    assert 20.0 <= extra <= 50.0


def test_non_responsive_child_exposed():
    """'expose non-responsive nodes': a silent child is reported by the
    source's witness machinery after the ack timeout."""
    system = PeerReviewSystem(
        "tnic", audit=False,
        behaviour=PeerReviewBehaviour(silent_child=True),
        ack_timeout_us=2_000.0,
    )
    metrics = system.run_workload(chunks=2)
    assert metrics.committed == 2  # the stream makes progress regardless
    faults = system.detected_faults()
    assert any("non-responsive" in fault and "child0" in fault
               for fault in faults)
    # The healthy child is never accused.
    assert not any("child1" in fault for fault in faults)
