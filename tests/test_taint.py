"""Tests for the interprocedural taint engine and the SEC rules.

Two layers: engine-level unit tests (summaries, sanitizers, fixpoint,
call resolution) against synthetic modules, and corpus tests against
``tests/fixtures/taint/`` — every seeded violation in ``broken/`` must
be detected (no false negatives) and ``clean/`` must stay silent (the
false-positive guard).  The real tree's cleanliness is covered by
``test_analysis.py::test_shipped_codebase_lints_clean_and_every_waiver_waives``;
here each SEC rule additionally proves it can fire on the real tree:
one mutation of a shipped module per rule (ROADMAP item 8's guard rail
— a rule is retired only when a tier-1 test catches the same real-tree
mutation, and a rule whose mutation cannot be made to fire is deleted).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import TaintEngine, collect_findings, collect_sources, taint
from repro.analysis.dataflow import index_functions, pattern_matches
from repro.analysis.taint import TAINT_RULES
from repro.analysis.walker import parse_file

FIXTURES = Path(__file__).parent / "fixtures" / "taint"


def _write_module(tmp_path: Path, relpath: str, source: str) -> Path:
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    current = path.parent
    while current != tmp_path:
        init = current / "__init__.py"
        if not init.exists():
            init.write_text("")
        current = current.parent
    path.write_text(source)
    return path


def _flows(tmp_path, source, name="repro/sample.py"):
    src = parse_file(_write_module(tmp_path, name, source))
    return TaintEngine(index_functions([src])).run()


# ----------------------------------------------------------------------
# Engine unit tests
# ----------------------------------------------------------------------

def test_pattern_matches_suffix_and_prefix_forms():
    assert pattern_matches("key_for", "self.keystore.key_for")
    assert pattern_matches("key_for", "key_for")
    assert not pattern_matches("key_for", "monkey_for")
    assert pattern_matches("logging.*", "logging.info")
    assert not pattern_matches("logging.*", "mylogging.info")


def test_direct_source_to_sink_flow(tmp_path):
    flows = _flows(tmp_path, (
        "def leak(store, sid):\n"
        "    print(store._hw_keys[sid])\n"
    ))
    assert [(f.kind, f.line) for f in flows] == [("log", 2)]


def test_assignment_propagates_taint(tmp_path):
    flows = _flows(tmp_path, (
        "def leak(store, sid):\n"
        "    key = store._hw_keys[sid]\n"
        "    alias = key\n"
        "    print(alias)\n"
    ))
    assert len(flows) == 1 and flows[0].kind == "log"


def test_sanitizer_launders_taint(tmp_path):
    flows = _flows(tmp_path, (
        "def safe(store, sid, payload):\n"
        "    mac = hmac_sha256(store._hw_keys[sid], payload)\n"
        "    print(mac)\n"
    ))
    assert flows == []


def test_a_keyed_state_is_key_material_and_only_its_macs_are_clean(tmp_path):
    flows = _flows(tmp_path, (
        "def leak(store, sid):\n"
        "    print(store.mac_for(sid))\n"
        "def rekey(key):\n"
        "    print(KeyedHmac(key))\n"
        "def safe(store, sid, encoded):\n"
        "    print(store.mac_for(sid).mac(encoded))\n"
    ), name="repro/core/fixture.py")
    assert [(f.kind, f.line) for f in flows] == [("log", 2), ("log", 4)]


def test_interprocedural_return_propagation(tmp_path):
    flows = _flows(tmp_path, (
        "def fetch(store, sid):\n"
        "    return store._hw_keys[sid]\n"
        "def leak(store, sid):\n"
        "    print(fetch(store, sid))\n"
    ))
    assert [(f.kind, f.line) for f in flows] == [("log", 4)]


def test_interprocedural_param_sink_reports_at_callsite(tmp_path):
    flows = _flows(tmp_path, (
        "def helper(value):\n"
        "    print(value)\n"
        "def leak(store, sid):\n"
        "    helper(store._hw_keys[sid])\n"
    ))
    assert len(flows) == 1
    flow = flows[0]
    assert flow.line == 4
    assert "helper" in flow.describe_path()


def test_three_hop_chain_converges(tmp_path):
    flows = _flows(tmp_path, (
        "def sink3(v):\n"
        "    print(v)\n"
        "def sink2(v):\n"
        "    sink3(v)\n"
        "def sink1(v):\n"
        "    sink2(v)\n"
        "def leak(store, sid):\n"
        "    sink1(store._hw_keys[sid])\n"
    ))
    assert any(f.line == 8 for f in flows)


def test_a_call_cycle_converges_and_reports_at_the_entry(tmp_path):
    # `a` and `b` call each other: whichever is analysed first sees the
    # other's summary empty, so the worklist must analyse it again.
    flows = _flows(tmp_path, (
        "def a(v, n):\n"
        "    if n:\n"
        "        return b(v, n - 1)\n"
        "    print(v)\n"
        "def b(v, n):\n"
        "    return a(v, n)\n"
        "def leak(store, sid):\n"
        "    b(store._hw_keys[sid], 3)\n"
    ))
    # One flow per distinct hop chain of at most four hops.
    assert [(f.line, f.kind, f.via) for f in flows] == [
        (8, "log", ("b()", "a()")),
        (8, "log", ("b()", "a()", "b()", "a()")),
    ]


def test_the_fixpoint_reanalyses_only_callers_of_changed_summaries(
        real_index, monkeypatch):
    analysed = []
    analyse = taint._FunctionPass.run

    def counting(single):
        analysed.append(single.fn)
        analyse(single)

    monkeypatch.setattr(taint._FunctionPass, "run", counting)
    TaintEngine(real_index).run()
    assert set(analysed) == set(real_index)
    # Measured 998 analyses of 844 functions.  Re-running every function
    # on every pass, then once more for its flows, took 6,736.
    assert len(analysed) < 2 * len(real_index)


def test_summaries_expose_passthrough_and_tags(tmp_path):
    src = parse_file(_write_module(tmp_path, "repro/sample.py", (
        "def ident(x):\n"
        "    return x\n"
        "def source(store, sid):\n"
        "    return store._hw_keys[sid]\n"
    )))
    engine = TaintEngine(index_functions([src]))
    engine.run()
    summaries = {fn.qualname: engine.summaries[fn] for fn in engine.functions}
    assert "x" in summaries["repro.sample.ident"].param_to_return
    assert not summaries["repro.sample.ident"].returns_key
    assert summaries["repro.sample.source"].returns_key


def test_compare_results_are_untainted(tmp_path):
    # A bool derived from a key must not itself count as key material
    # (otherwise `has_key = sid == 1` style code drowns SEC001 in noise).
    flows = _flows(tmp_path, (
        "def check(store, sid, other):\n"
        "    matches = store._hw_keys[sid] == other\n"
        "    print(matches)\n"
    ))
    assert [f.kind for f in flows] == ["compare"]


def test_key_param_sources_respect_package_restriction(tmp_path):
    # `key` parameters are only born tainted inside the TCB packages.
    outside = _flows(tmp_path, (
        "def seal(key, payload):\n"
        "    print(key)\n"
    ), name="repro/attest/sample.py")
    inside = _flows(tmp_path, (
        "def seal(key, payload):\n"
        "    print(key)\n"
    ), name="repro/core/sample.py")
    assert outside == []
    assert [f.kind for f in inside] == ["log"]


# ----------------------------------------------------------------------
# Corpus tests: no false negatives on broken/, no positives on clean/
# ----------------------------------------------------------------------

def _corpus_findings(corpus: str):
    sources = collect_sources([FIXTURES / corpus])
    return collect_findings(sources, [cls() for cls in TAINT_RULES])


def test_broken_corpus_every_rule_fires():
    findings = _corpus_findings("broken")
    fired = {f.rule for f in findings}
    assert fired == {"SEC001", "SEC002", "SEC003"}


def test_broken_corpus_detects_every_seeded_violation():
    expected = {
        ("SEC001", "repro.stack.leak_sink", 15),   # print leak via helper
        ("SEC001", "repro.stack.leak_sink", 21),   # telemetry leak
        ("SEC001", "repro.stack.leak_sink", 31),   # wire leak, via-chain
        ("SEC002", "repro.stack.leak_compare", 7),
        ("SEC003", "repro.stack.leak_store", 12),
        # A session's keyed HMAC state is the key, absorbed.
        ("SEC001", "repro.stack.leak_capability", 11),  # mac_for() pickled, sent
        ("SEC001", "repro.stack.leak_capability", 16),  # _session_macs read
        ("SEC003", "repro.stack.leak_capability", 27),
    }
    got = {(f.rule, f.module, f.line) for f in _corpus_findings("broken")}
    assert expected <= got, f"missed: {expected - got}"


def test_broken_corpus_reports_interprocedural_hop():
    findings = _corpus_findings("broken")
    wire = [f for f in findings if f.rule == "SEC001" and f.line == 31]
    assert wire and "send_raw" in wire[0].message


def test_clean_corpus_is_silent():
    assert _corpus_findings("clean") == []


def test_real_tree_has_no_unwaived_taint_findings(real_findings, real_unwaived):
    taint_ids = {cls.rule_id for cls in TAINT_RULES}
    findings = [f for f in real_findings if f.rule in taint_ids]
    # The §3.2 manufacturer→vendor disclosure carries an inline waiver;
    # everything the taint rules flag must be waived there, not here.
    unwaived = [f for f in real_unwaived if f.rule in taint_ids]
    assert unwaived == [], [f.render() for f in unwaived]
    # ...and the waiver is real: the raw pass does see the disclosure.
    assert any(
        f.rule == "SEC003" and f.module == "repro.attest_protocol.actors"
        for f in findings
    )


#: rule -> (module file under src/repro, the one line the mutation
#: rewrites, what it becomes, a word the finding's message must carry).
_REAL_TREE_MUTATIONS = {
    # §4.1 key secrecy: a tracepoint at install logs the session key.
    "SEC001": (
        "core/attestation.py",
        "        self.keystore.install(session_id, key)\n",
        "        self.keystore.install(session_id, key)\n"
        "        emit(self.sim, \"attest.install\", key, device=self.device_id)\n",
        "emit",
    ),
    # A weak-key check that compares the key being burnt with `==`.
    "SEC002": (
        "core/keystore.py",
        "        if not isinstance(key, bytes) or len(key) < 16:\n",
        "        if (not isinstance(key, bytes) or len(key) < 16\n"
        "                or key == bytes(len(key))):\n",
        "compare_digest",
    ),
    # The §3.2 HW-key hand-off without the waiver that sanctions it.
    "SEC003": (
        "attest_protocol/actors.py",
        "  # lint: ignore[SEC003]",
        "",
        "_hw_keys",
    ),
}


@pytest.mark.parametrize("rule", sorted(_REAL_TREE_MUTATIONS))
def test_real_module_mutation_raises_its_rule(rule, tmp_path):
    from repro.analysis.rules import run_rules
    from repro.analysis.walker import default_package_root

    relpath, gate, mutant, word = _REAL_TREE_MUTATIONS[rule]
    real = (default_package_root() / relpath).read_text()
    assert real.count(gate) == 1, f"the line {rule}'s mutation rewrites moved"

    def findings(source: str, name: str):
        path = _write_module(tmp_path / name, f"repro/{relpath}", source)
        return run_rules([parse_file(path)], [cls() for cls in TAINT_RULES])

    assert findings(real, "real") == []
    hits = findings(real.replace(gate, mutant), "mutated")
    assert [f.rule for f in hits] == [rule]
    assert word in hits[0].message
