"""Tests for the TNIC Attested Append-Only Memory (Appendix C.2)."""

import os
import subprocess
import sys

import pytest

import repro
from repro.crypto.hashing import sha256
from repro.sim import Simulator
from repro.sim.latency import HOST_MEMORY_LOOKUP_US
from repro.systems.a2m import A2M, A2MError, MANIFEST
from repro.tee import make_provider

KEY = b"a2m-key-0123456789abcdef01234567"
SESSION = 1


def make_a2m(provider_name="tnic", storage="untrusted", **kwargs):
    sim = Simulator()
    provider = make_provider(provider_name, sim, 1, **kwargs)
    provider.install_session(SESSION, KEY)
    return sim, A2M(provider, SESSION, storage=storage)


def run(sim, event):
    return sim.run(event)


def test_append_assigns_monotonic_sequence_numbers():
    sim, a2m = make_a2m()
    entries = [run(sim, a2m.append("log", f"e{i}".encode())) for i in range(5)]
    assert [e.sequence for e in entries] == [0, 1, 2, 3, 4]
    assert a2m.bounds("log") == (0, 5)


def test_append_binds_context_to_attestation():
    sim, a2m = make_a2m()
    entry = run(sim, a2m.append("log", b"ctx"))
    assert entry.alpha.payload == b"ctx"
    assert entry.alpha.counter == 0
    assert len(entry.authenticator()) == 32


def test_cumulative_digest_chains():
    sim, a2m = make_a2m()
    e0 = run(sim, a2m.append("log", b"a"))
    e1 = run(sim, a2m.append("log", b"b"))
    assert e0.cumulative_digest != e1.cumulative_digest
    # Chain property: e1's digest covers e0's digest.
    assert e1.cumulative_digest == sha256(b"b", 1, e0.cumulative_digest)


def test_an_append_does_not_iterate_the_existing_entries():
    """The previous digest is read at ``tail - 1``, so an append costs
    the same at any log length, a truncated log's included."""

    class Uniterable(dict):
        def __iter__(self):
            raise AssertionError("an append iterated the log's entries")

    sim, a2m = make_a2m()
    for i in range(8):
        run(sim, a2m.append("log", f"e{i}".encode()))
    run(sim, a2m.truncate("log", 5, b"z"))
    log = a2m._log("log")
    log.entries = Uniterable(log.entries)
    previous = log.entries[log.tail - 1].cumulative_digest
    entry = run(sim, a2m.append("log", b"next"))
    assert entry.sequence == 9
    assert entry.cumulative_digest == sha256(b"next", 9, previous)


def test_lookup_returns_entry_without_verification():
    sim, a2m = make_a2m()
    run(sim, a2m.append("log", b"x"))
    entry = run(sim, a2m.lookup("log", 0))
    assert entry.context == b"x"


def test_lookup_missing_entry_raises():
    _, a2m = make_a2m()
    with pytest.raises(A2MError, match="no entry"):
        a2m.lookup("log", 3)


def test_verify_lookup_accepts_genuine_entry():
    sim, a2m = make_a2m()
    run(sim, a2m.append("log", b"x"))
    entry = run(sim, a2m.lookup("log", 0))
    head, tail = a2m.bounds("log")
    verified = run(sim, a2m.verify_lookup("log", entry, head, tail))
    assert verified is entry


def test_verify_lookup_rejects_forged_entry():
    from dataclasses import replace

    sim, a2m = make_a2m()
    run(sim, a2m.append("log", b"x"))
    entry = run(sim, a2m.lookup("log", 0))
    forged = replace(entry, context=b"forged",
                     alpha=replace(entry.alpha, payload=b"forged"))
    head, tail = a2m.bounds("log")
    with pytest.raises(A2MError, match="attestation failed"):
        run(sim, a2m.verify_lookup("log", forged, head, tail))


def test_truncate_forgets_entries_and_records_manifest():
    sim, a2m = make_a2m()
    for i in range(5):
        run(sim, a2m.append("log", f"e{i}".encode()))
    run(sim, a2m.truncate("log", head=3, nonce=b"nonce-1"))
    head, tail = a2m.bounds("log")
    assert head == 3
    with pytest.raises(A2MError):
        a2m.lookup("log", 1)  # forgotten
    # TRNC marker appended to the log, plus one MANIFEST record.
    _, manifest_tail = a2m.bounds(MANIFEST)
    assert manifest_tail == 1
    marker = run(sim, a2m.lookup("log", 5))
    assert marker.context.startswith(b"TRNC|log|nonce-1")


def test_truncated_entry_fails_verify_lookup():
    """'A non-Byzantine client can never successfully verify a
    forgotten log entry.'"""
    sim, a2m = make_a2m()
    for i in range(4):
        run(sim, a2m.append("log", f"e{i}".encode()))
    stale = run(sim, a2m.lookup("log", 0))
    run(sim, a2m.truncate("log", head=2, nonce=b"z"))
    head, tail = a2m.bounds("log")
    with pytest.raises(A2MError, match="outside live window"):
        a2m.verify_lookup("log", stale, head, tail)


def test_manifest_cannot_be_truncated():
    _, a2m = make_a2m()
    with pytest.raises(A2MError, match="MANIFEST"):
        a2m.truncate(MANIFEST, 0, b"z")


def test_truncate_beyond_tail_rejected():
    _, a2m = make_a2m()
    with pytest.raises(A2MError, match="beyond tail"):
        a2m.truncate("log", 5, b"z")


def test_invalid_storage_mode():
    sim = Simulator()
    provider = make_provider("tnic", sim, 1)
    provider.install_session(SESSION, KEY)
    with pytest.raises(ValueError):
        A2M(provider, SESSION, storage="weird")


def test_untrusted_lookup_is_host_memory_speed():
    _, a2m = make_a2m("tnic", storage="untrusted")
    assert a2m.lookup_cost_us("log", 12345) == HOST_MEMORY_LOOKUP_US


def test_enclave_lookup_pays_epc_paging_on_large_logs():
    """Table 3's 66x SGX-lib lookup slowdown: sequential cold scans
    over a >EPC log are dominated by paging."""
    _, a2m = make_a2m("sgx-lib", storage="enclave")
    # Scan far beyond the EPC: every page is a miss.
    miss_costs = [
        a2m.lookup_cost_us("log", i)
        for i in range(0, 2_000_000, 41)  # stride beyond one page
    ]
    mean_cost = sum(miss_costs) / len(miss_costs)
    assert mean_cost > 10 * HOST_MEMORY_LOOKUP_US


def test_enclave_costs_ignore_the_str_hash_seed():
    """Builtin ``hash()`` of a ``str`` is salted per interpreter; a log's
    EPC region (virtual time, via the hit/miss pattern of three logs)
    must come from the bytes, so two interpreters agree."""
    probe = (
        "from repro.sim import Simulator\n"
        "from repro.systems.a2m import A2M\n"
        "from repro.tee import make_provider\n"
        "provider = make_provider('sgx-lib', Simulator(), 1)\n"
        f"provider.install_session({SESSION}, {KEY!r})\n"
        f"a2m = A2M(provider, {SESSION}, storage='enclave')\n"
        "cost = sum(a2m.lookup_cost_us(log, i)\n"
        "           for i in range(50) for log in ('a', 'b', 'c'))\n"
        "print(round(cost, 6), a2m._enclave.hits)\n"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    outputs = [
        subprocess.run(
            [sys.executable, "-c", probe], check=True, capture_output=True,
            text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
        ).stdout
        for seed in ("1", "3")
    ]
    assert outputs[0] == outputs[1]
    # Three logs live in three regions: no lookup hits another log's page.
    assert outputs[0].split()[1] == "0"


def test_append_latency_ordering_matches_table3():
    """Table 3 append latency: SSL-lib < SGX-lib < TNIC < AMD-sev."""
    means = {}
    for name, storage in [
        ("ssl-lib", "untrusted"),
        ("sgx-lib", "enclave"),
        ("tnic", "untrusted"),
        ("amd-sev", "untrusted"),
    ]:
        sim, a2m = make_a2m(name, storage=storage)
        start = sim.now
        for i in range(50):
            run(sim, a2m.append("log", b"x" * 64))
        means[name] = (sim.now - start) / 50
    assert means["ssl-lib"] < means["sgx-lib"] < means["tnic"] < means["amd-sev"]
    # SSL-lib append ~1.26us (Table 3).
    assert means["ssl-lib"] == pytest.approx(1.26, rel=0.25)


def test_reconstruct_bounds_without_truncation():
    sim, a2m = make_a2m()
    for i in range(3):
        run(sim, a2m.append("log", f"e{i}".encode()))
    head, tail = run(sim, a2m.reconstruct_bounds("log"))
    assert (head, tail) == (0, 3)


def test_reconstruct_bounds_finds_latest_truncation():
    sim, a2m = make_a2m()
    for i in range(8):
        run(sim, a2m.append("log", f"e{i}".encode()))
    run(sim, a2m.truncate("log", head=2, nonce=b"n1"))
    run(sim, a2m.truncate("log", head=5, nonce=b"n2"))
    head, tail = run(sim, a2m.reconstruct_bounds("log"))
    assert head == 5
    assert tail == a2m.bounds("log")[1]


def test_reconstruct_bounds_is_per_log():
    sim, a2m = make_a2m()
    for i in range(4):
        run(sim, a2m.append("alpha", f"a{i}".encode()))
        run(sim, a2m.append("beta", f"b{i}".encode()))
    run(sim, a2m.truncate("alpha", head=3, nonce=b"z"))
    head_alpha, _ = run(sim, a2m.reconstruct_bounds("alpha"))
    head_beta, _ = run(sim, a2m.reconstruct_bounds("beta"))
    assert head_alpha == 3
    assert head_beta == 0


def test_reconstruct_bounds_detects_forged_manifest():
    sim, a2m = make_a2m()
    for i in range(4):
        run(sim, a2m.append("log", f"e{i}".encode()))
    run(sim, a2m.truncate("log", head=2, nonce=b"n"))
    # Byzantine host rewrites the MANIFEST record in untrusted memory.
    from dataclasses import replace

    from repro.systems.a2m import MANIFEST

    manifest_log = a2m._log(MANIFEST)
    seq = max(manifest_log.entries)
    entry = manifest_log.entries[seq]
    forged_ctx = entry.context.replace(b"|2|", b"|0|")
    manifest_log.entries[seq] = replace(
        entry, context=forged_ctx,
        alpha=replace(entry.alpha, payload=forged_ctx),
    )
    with pytest.raises(A2MError, match="failed verification"):
        run(sim, a2m.reconstruct_bounds("log"))
