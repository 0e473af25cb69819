"""The liveness pass: LIV rules, the fixture corpus, the wait graph.

Three layers under test, mirroring the corpus under
``tests/fixtures/liveness/``:

* the static LIV001–LIV005 rules — every seeded lifecycle bug in
  ``broken/`` must be reported at exactly its line, and nothing in
  ``clean/`` may be flagged (try/finally-released holds, exclusive or
  guarded triggers, handed-off events, ordered acquisition, deadline-
  composed network waits);
* the wait-for graph — the seeded AB-BA fixture must produce a cycle
  and a ``deadlock_free: false`` verdict, the ordered twin must not;
* the real tree — zero unwaived LIV findings, and the committed
  ``benchmarks/results/wait_graph.json`` must match a fresh emission
  (the contract ``scripts/check.sh`` regresses against).

Plus the ``lint --only`` selector: exact ids and family prefixes
filter post-merge (so ``--jobs`` output stays byte-identical), and
unknown selectors exit 2 listing the valid prefixes.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.liveness import (
    ACQUIRE_VERBS,
    LIVENESS_RULES,
    SELF_RELEASING,
    LivenessEngine,
    wait_graph,
)
from repro.analysis.rules import collect_findings, run_rules
from repro.analysis.walker import collect_sources
from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures" / "liveness"
ARTIFACT = (
    Path(__file__).parent.parent / "benchmarks" / "results"
    / "wait_graph.json"
)

LIV_IDS = ("LIV001", "LIV002", "LIV003", "LIV004", "LIV005")


def _corpus_findings(corpus: str):
    sources = collect_sources([FIXTURES / corpus])
    return collect_findings(sources, [cls() for cls in LIVENESS_RULES])


# ----------------------------------------------------------------------
# Static corpus: no false negatives on broken/, no positives on clean/
# ----------------------------------------------------------------------

def test_broken_corpus_every_rule_fires():
    fired = {f.rule for f in _corpus_findings("broken")}
    assert fired == set(LIV_IDS)


def test_broken_corpus_detects_exactly_the_seeded_violations():
    expected = {
        ("LIV001", "repro.sim.leak", 11),          # never released
        ("LIV001", "repro.sim.leak", 16),          # release outside finally
        ("LIV002", "repro.sim.double_trigger", 8),   # sequential re-trigger
        ("LIV002", "repro.sim.double_trigger", 14),  # loop outlives event
        ("LIV003", "repro.sim.lost_wakeup", 7),    # no reachable trigger
        ("LIV004", "repro.sim.deadlock", 13),      # AB-BA cycle
        ("LIV005", "repro.roce.unbounded", 11),    # pending w/o deadline
        ("LIV005", "repro.roce.unbounded", 17),    # while True get()
    }
    got = {(f.rule, f.module, f.line) for f in _corpus_findings("broken")}
    assert got == expected, (
        f"missed: {expected - got}; spurious: {got - expected}"
    )


def test_clean_corpus_is_silent():
    assert _corpus_findings("clean") == []


def test_liv001_message_names_resource_and_missing_release():
    leak = next(
        f for f in _corpus_findings("broken")
        if f.rule == "LIV001" and f.line == 11
    )
    assert "self.lock.acquire()" in leak.message
    assert "self.lock.release()" in leak.message


def test_liv004_message_names_the_ring_and_the_holders():
    cycle = next(
        f for f in _corpus_findings("broken") if f.rule == "LIV004"
    )
    assert "TwoLocks.lock_a -> " in cycle.message
    assert "TwoLocks.forward" in cycle.message
    assert "TwoLocks.backward" in cycle.message
    assert "acquisition order" in cycle.message


def test_liv005_points_at_the_sanctioned_deadline_idiom():
    pending = next(
        f for f in _corpus_findings("broken")
        if f.rule == "LIV005" and f.line == 11
    )
    assert "RpcEndpoint.call" in pending.message


# ----------------------------------------------------------------------
# The wait-for graph
# ----------------------------------------------------------------------

def test_fixture_wait_graph_flags_the_abba_cycle():
    sources = collect_sources([FIXTURES / "broken"])
    graph = wait_graph(sources, systems={"fix": ("repro.sim.deadlock",)})
    system = graph["systems"]["fix"]
    assert system["deadlock_free"] is False
    assert len(system["cycles"]) == 1
    cycle = system["cycles"][0]
    assert cycle["resources"] == [
        "repro.sim.deadlock.TwoLocks.lock_a",
        "repro.sim.deadlock.TwoLocks.lock_b",
    ]
    holders = {edge["holder"] for edge in cycle["edges"]}
    assert holders == {
        "repro.sim.deadlock.TwoLocks.forward",
        "repro.sim.deadlock.TwoLocks.backward",
    }


def test_fixture_wait_graph_ordered_twin_is_deadlock_free():
    sources = collect_sources([FIXTURES / "clean"])
    graph = wait_graph(sources, systems={"fix": ("repro.sim.ordered",)})
    system = graph["systems"]["fix"]
    assert system["deadlock_free"] is True
    assert system["cycles"] == []
    # Same acquisition order twice: edges exist, but only a -> b.
    pairs = {(e["holds"], e["waits_on"]) for e in system["edges"]}
    assert pairs == {(
        "repro.sim.ordered.OrderedLocks.lock_a",
        "repro.sim.ordered.OrderedLocks.lock_b",
    )}


def test_fixture_leak_inventory_is_pre_waiver():
    sources = collect_sources([FIXTURES / "broken"])
    graph = wait_graph(sources, systems={})
    assert graph["totals"]["leak_sites"] == 2
    assert all(leak["waived"] is False for leak in graph["leaks"])


def test_engine_vocabulary_is_consistent():
    # Every acquire verb has a release verb, and the self-releasing
    # helpers are not acquire verbs (their callee owns the span).
    assert set(ACQUIRE_VERBS) == {"acquire", "request", "exclusive_regs"}
    assert SELF_RELEASING.isdisjoint(ACQUIRE_VERBS)


def test_engine_hits_are_deterministically_ordered():
    sources = collect_sources([FIXTURES / "broken"])
    a = LivenessEngine(sources)
    b = LivenessEngine(sources)
    key = lambda h: (str(h.src.path), h.line, h.col, h.rule_id)  # noqa: E731
    assert [key(h) for h in a.hits] == [key(h) for h in b.hits]
    assert [key(h) for h in a.hits] == sorted(key(h) for h in a.hits)


# ----------------------------------------------------------------------
# The real tree and the committed artifact
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def real_graph(real_sources):
    return wait_graph(real_sources)


@pytest.mark.lint
def test_real_tree_has_no_unwaived_liv_findings(real_sources):
    findings = run_rules(real_sources, [cls() for cls in LIVENESS_RULES])
    assert findings == [], "\n".join(f.render() for f in findings)


@pytest.mark.lint
def test_real_tree_every_system_is_deadlock_free(real_graph):
    for name, system in real_graph["systems"].items():
        assert system["deadlock_free"] is True, (
            f"{name} has wait-for cycles: {system['cycles']}"
        )


@pytest.mark.lint
def test_committed_wait_graph_matches_fresh_emission(real_graph):
    # The artifact CI uploads must be regenerated whenever the liveness
    # surface changes:
    #   python -m repro lint --wait-graph benchmarks/results/wait_graph.json
    committed = json.loads(ARTIFACT.read_text(encoding="utf-8"))
    assert committed == real_graph, (
        "benchmarks/results/wait_graph.json is stale — regenerate with "
        "`python -m repro lint --wait-graph benchmarks/results/"
        "wait_graph.json`"
    )


@pytest.mark.lint
def test_real_tree_waived_leaks_still_counted(real_graph):
    # Resource.locked is acquire-only by design: waived inline, but the
    # pre-waiver inventory must still carry the site.
    locked = [
        leak for leak in real_graph["leaks"]
        if leak["module"] == "repro.sim.resources"
    ]
    assert len(locked) == 1
    assert locked[0]["waived"] is True


# ----------------------------------------------------------------------
# lint --only and the --wait-graph CLI surface
# ----------------------------------------------------------------------

def test_only_prefix_filters_to_the_family(capsys):
    target = str(FIXTURES / "broken")
    assert main(["lint", target, "--only", "LIV", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 8
    assert all(f["rule"].startswith("LIV") for f in payload["findings"])


def test_only_exact_rule_filters_to_one_rule(capsys):
    target = str(FIXTURES / "broken")
    assert main(
        ["lint", target, "--only", "LIV004", "--format", "json"]
    ) == 1
    payload = json.loads(capsys.readouterr().out)
    assert {f["rule"] for f in payload["findings"]} == {"LIV004"}


def test_only_with_no_matching_findings_exits_clean(capsys):
    target = str(FIXTURES / "clean")
    assert main(["lint", target, "--only", "LIV"]) == 0
    assert "clean" in capsys.readouterr().out


def test_only_unknown_selector_exits_2_listing_prefixes(capsys):
    assert main(["lint", "--only", "NOPE"]) == 2
    err = capsys.readouterr().err
    assert "NOPE" in err
    for prefix in ("DET", "LIV", "PERF", "SHD"):
        assert prefix in err


def test_only_composes_with_jobs_byte_identically(capsys):
    target = str(FIXTURES / "broken")
    assert main(["lint", target, "--only", "LIV", "--format", "json"]) == 1
    serial = capsys.readouterr().out
    assert main(
        ["lint", target, "--only", "LIV", "--format", "json", "--jobs", "4"]
    ) == 1
    assert capsys.readouterr().out == serial


def test_wait_graph_cli_writes_artifact_and_summarises(tmp_path, capsys):
    out_path = tmp_path / "results" / "wait_graph.json"
    assert main(["lint", "--wait-graph", str(out_path)]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out_path.read_text(encoding="utf-8"))
    assert payload["schema"] == 1
    assert set(payload["systems"]) == {"a2m", "bft", "chain", "peer_review"}
    assert "deadlock-free" in out
    assert "wait graph written to" in out
