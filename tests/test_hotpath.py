"""The hot-path cost pass: reachability and the PERF rules.

Two layers under test, mirroring the corpus under
``tests/fixtures/hotpath/``, and the real tree:

* the static PERF001–PERF003 rules — every seeded violation in
  ``broken/`` must be reported at exactly its line, and nothing in
  ``clean/`` may be flagged (slotted records, gated f-strings);
* the interprocedural closure — the entry patterns must resolve to the
  fixture kernel, reach its callees, and stop at exempt functions and
  package boundaries;
* the real tree — no unwaived PERF finding, every entry point the
  policy declares still names a function (a rename that orphans a
  declared root would silently shrink the hot set), and every emit
  hook is a tracepoint defined in ``repro.sim.instrument``.
"""

from __future__ import annotations

import inspect
from pathlib import Path

import pytest

from repro.analysis.dataflow import index_functions, pattern_matches
from repro.analysis.hotpath import (
    HOTPATH_RULES,
    TNIC_MANIFEST,
    HotPathEngine,
    HotPathManifest,
)
from repro.analysis.rules import collect_findings, rule_catalog
from repro.analysis.walker import collect_sources
from repro.sim import instrument

FIXTURES = Path(__file__).parent / "fixtures" / "hotpath"

PERF_IDS = ("PERF001", "PERF002", "PERF003")


def _corpus_findings(corpus: str):
    sources = collect_sources([FIXTURES / corpus])
    return collect_findings(sources, [cls() for cls in HOTPATH_RULES])


def _engine(corpus: str, *manifest: HotPathManifest) -> HotPathEngine:
    sources = collect_sources([FIXTURES / corpus])
    return HotPathEngine(sources, index_functions(sources), *manifest)


# ----------------------------------------------------------------------
# Static corpus: no false negatives on broken/, no positives on clean/
# ----------------------------------------------------------------------

def test_broken_corpus_every_rule_fires():
    fired = {f.rule for f in _corpus_findings("broken")}
    assert fired == set(PERF_IDS)


def test_broken_corpus_detects_exactly_the_seeded_violations():
    expected = {
        ("PERF001", "repro.sim.hotkernel", 23),  # list comprehension
        ("PERF001", "repro.sim.hotkernel", 24),  # "queue:" + str(...)
        ("PERF001", "repro.sim.hotkernel", 25),  # lambda event: None
        ("PERF002", "repro.sim.hotkernel", 26),  # EventRecord() w/o slots
        ("PERF003", "repro.sim.hotkernel", 27),  # ungated f-string emit
        ("PERF002", "repro.sim.hotkernel", 34),  # ... and in _drain
    }
    got = {(f.rule, f.module, f.line) for f in _corpus_findings("broken")}
    assert got == expected, (
        f"missed: {expected - got}; spurious: {got - expected}"
    )


def test_clean_corpus_is_silent():
    assert _corpus_findings("clean") == []


def test_a_record_class_counts_as_slotted(tmp_path):
    # The clean kernel builds a ``@record`` per step; without the
    # decorator the same class is the PERF002 shape.
    tree = tmp_path / "repro"
    (tree / "sim").mkdir(parents=True)
    for name in ("__init__.py", "sim/__init__.py"):
        (tree / name).write_text("")
    source = (FIXTURES / "clean" / "repro" / "sim" / "coolkernel.py").read_text()
    assert "@record\nclass StepMark(Record):" in source
    (tree / "sim" / "coolkernel.py").write_text(
        source.replace("@record\nclass StepMark", "class StepMark"))
    findings = collect_findings(collect_sources([tmp_path]),
                                [cls() for cls in HOTPATH_RULES])
    assert [(f.rule, "StepMark" in f.message) for f in findings] == [("PERF002", True)]


# ----------------------------------------------------------------------
# Interprocedural closure
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def broken_engine():
    return _engine("broken")


@pytest.fixture(scope="module")
def clean_engine():
    return _engine("clean")


def test_entry_patterns_resolve_against_the_fixture_kernel(broken_engine):
    assert set(broken_engine.reachable) == {
        "repro.sim.hotkernel.Simulator.step",
        "repro.sim.hotkernel.Simulator._drain",
    }


def test_step_reaches_its_callees_transitively(broken_engine):
    reach = broken_engine.reachable["repro.sim.hotkernel.Simulator.step"]
    assert "repro.sim.hotkernel.Simulator._drain" in reach
    assert "repro.sim.hotkernel.emit" in reach


def test_helpers_join_the_hot_set_through_calls(clean_engine):
    assert "repro.sim.coolkernel.emit" in clean_engine.hot_functions
    assert "repro.sim.coolkernel.count" in clean_engine.hot_functions


def test_exempt_functions_are_cut_from_the_closure():
    manifest = HotPathManifest(
        entry_points=("Simulator.step",),
        hot_packages=("repro.sim",),
        exempt_functions=("_drain",),
    )
    engine = _engine("broken", manifest)
    reach = engine.reachable["repro.sim.hotkernel.Simulator.step"]
    assert "repro.sim.hotkernel.Simulator._drain" not in reach
    # With _drain exempt, its unslotted record is unchecked.
    assert [f.line for f in engine.findings if f.rule == "PERF002"] == [26]


# ----------------------------------------------------------------------
# Rule registration
# ----------------------------------------------------------------------

def test_perf_rules_registered_in_catalog():
    catalog = rule_catalog()
    for rule_id in PERF_IDS:
        assert rule_id in catalog
        assert catalog[rule_id]


def test_perf_rules_carry_explanations():
    for cls in HOTPATH_RULES:
        rule = cls()
        assert rule.explanation, f"{rule.rule_id} has no --explain text"


# ----------------------------------------------------------------------
# The real tree
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def real_engine(real_sources, real_index):
    return HotPathEngine(real_sources, real_index)


@pytest.mark.lint
def test_real_tree_has_no_unwaived_perf_findings(real_unwaived):
    perf_ids = {cls.rule_id for cls in HOTPATH_RULES}
    findings = [f for f in real_unwaived if f.rule in perf_ids]
    assert findings == [], "\n".join(f.render() for f in findings)


@pytest.mark.lint
def test_real_tree_closure_covers_the_kernel_datapath(real_engine):
    reachable = real_engine.reachable
    drain = reachable["repro.sim.clock.Simulator._drain"]
    # The drain loop dispatches triggered events into their callbacks.
    assert "repro.sim.events.Event.succeed" in reachable
    assert "repro.sim.clock.Simulator._drain" in drain
    tx = reachable["repro.core.device._Send._attested"]
    # The stage that calls post_send reaches the RoCE segmentation path
    # interprocedurally.
    assert any(q.endswith("RoceKernel._segment") for q in tx)
    # The device reaches host memory only through ``_host_memory``,
    # which the call graph resolves by trailing name: a rename there
    # would quietly take the one-sided port, and the post's read of the
    # region its lkey names, out of the hot set.
    deliver = reachable["repro.core.device.TnicDevice._on_deliver"]
    assert "repro.stack.rdma_lib.MemoryTable.dma_write" in deliver
    assert "repro.stack.rdma_lib.MemoryTable.dma_read" in deliver
    post = reachable["repro.stack.rdma_lib.RdmaLibrary.post"]
    assert "repro.stack.memory.IbvMemory.read" in post
    # A scheduled call's step is run only from its heap entry, so the
    # policy declares it, and the PERF rules check it.
    assert {
        "repro.sim.clock.Simulator.call_at",
        "repro.sim.clock._invoke",
        "repro.systems.common.Client.begin",
        "repro.systems.common.Client._arrived",
        "repro.systems.common.Client._expire",
        "repro.systems.common.BroadcastAuthenticator._settle",
        "repro.roce.transport.RoceKernel._timer_fired",
        # The datapath's stages: the DMA and HMAC steps of a send, the
        # rx verify and the lane step it hands its outcome to, the MAC's
        # serialisation and the fabric hop.
        "repro.core.device._Send._fetched",
        "repro.core.device._Send._attested",
        "repro.core.attestation.AttestationKernel._settle",
        "repro.roce.transport._RxLane._verified",
        "repro.net.mac.EthernetMac._serialised",
        "repro.net.mac.EthernetMac.deliver",
    } <= set(reachable)


@pytest.mark.lint
def test_every_declared_entry_point_resolves_on_the_real_tree(real_engine):
    # A callback-registered function is invisible to the call graph, so
    # the policy names it; if a rename orphans the name, the function and
    # everything only it reaches drop out of the hot set without a word.
    orphaned = [
        pattern
        for pattern in TNIC_MANIFEST.entry_points
        if not any(pattern_matches(pattern, root) for root in real_engine.reachable)
    ]
    assert orphaned == []
    # An emit hook names a tracepoint function; a name whose function is
    # gone leaves PERF003 guarding calls that no code can make.
    defined = {
        name
        for name, obj in vars(instrument).items()
        if inspect.isfunction(obj) and obj.__module__ == instrument.__name__
    }
    assert [name for name in TNIC_MANIFEST.emit_hooks if name not in defined] == []
