"""The shard-safety pass: ownership domains, SHD rules, the manifest.

Three layers under test, mirroring the corpus under
``tests/fixtures/ownership/``:

* the static SHD001–SHD003 rules — every seeded violation in
  ``broken/`` must be reported at exactly its line, and nothing in
  ``clean/`` may be flagged;
* the domain assignment itself — allocation sites must land in
  ``replica-local``, channel factories in ``link``, constructor-argument
  aliases in ``shared``, and per-replica allocation shapes must mark the
  class a replica;
* the partition manifest — the real tree's ``chain`` and ``a2m`` must
  be ``shardable: true`` with zero findings, ``peer_review`` must stay
  blocked by its waived findings, and channel edges must carry message
  types (the contract ROADMAP item 1's engine consumes).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.ownership import (
    OWNERSHIP_RULES,
    SYSTEM_MODULES,
    OwnershipEngine,
    partition_manifest,
)
from repro.analysis.rules import collect_findings, rule_catalog, run_rules
from repro.analysis.walker import collect_sources
from repro.sim.shard import CrossShard, cross_shard

FIXTURES = Path(__file__).parent / "fixtures" / "ownership"


def _corpus_findings(corpus: str):
    sources = collect_sources([FIXTURES / corpus])
    return collect_findings(sources, [cls() for cls in OWNERSHIP_RULES])


# ----------------------------------------------------------------------
# Static corpus: no false negatives on broken/, no positives on clean/
# ----------------------------------------------------------------------

def test_broken_corpus_every_rule_fires():
    fired = {f.rule for f in _corpus_findings("broken")}
    assert fired == {"SHD001", "SHD002", "SHD003"}


def test_broken_corpus_detects_exactly_the_seeded_violations():
    expected = {
        ("SHD001", "repro.escape_ledger", 31),   # collect(self.log)
        ("SHD001", "repro.escape_ledger", 33),   # system.latest = self.log
        ("SHD003", "repro.escape_ledger", 33),   # ... is also a shared write
        ("SHD002", "repro.global_residency", 4),  # TALLIES definition
        ("SHD003", "repro.cross_call", 31),      # grid.faults.append
        ("SHD003", "repro.cross_call", 33),      # workers["w0"].step(...)
        ("SHD003", "repro.cross_call", 35),      # grid.tally.finished = 1
    }
    got = {(f.rule, f.module, f.line) for f in _corpus_findings("broken")}
    assert got == expected, (
        f"missed: {expected - got}; spurious: {got - expected}"
    )


def test_clean_corpus_is_silent():
    assert _corpus_findings("clean") == []


def test_shd002_message_names_mutators_and_accessors():
    finding = next(f for f in _corpus_findings("broken")
                   if f.rule == "SHD002")
    assert "TALLIES" in finding.message
    assert "Peer.run" in finding.message
    assert "Peer.drain" in finding.message


# ----------------------------------------------------------------------
# Domain assignment
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def broken_engine():
    return OwnershipEngine(collect_sources([FIXTURES / "broken"]))


@pytest.fixture(scope="module")
def clean_engine():
    return OwnershipEngine(collect_sources([FIXTURES / "clean"]))


def test_allocation_sites_are_replica_local(broken_engine):
    node = broken_engine.classes["repro.escape_ledger.Node"]
    assert node.attrs["log"].domain == "replica-local"
    assert node.attrs["log"].mutable


def test_constructor_argument_alias_is_shared(broken_engine):
    node = broken_engine.classes["repro.escape_ledger.Node"]
    assert node.attrs["system"].domain == "shared"
    # The annotation binds the alias to the System class, so chains
    # through `self.system` resolve against System's own domains.
    assert node.attrs["system"].points_to == "repro.escape_ledger.System"


def test_channel_factories_are_link_domain(clean_engine):
    system = clean_engine.classes["repro.channel_ledger.System"]
    node = clean_engine.classes["repro.channel_ledger.Node"]
    assert system.attrs["network"].domain == "link"
    assert node.attrs["inbox"].domain == "link"


def test_per_replica_allocation_marks_the_class_a_replica(broken_engine):
    assert broken_engine.classes["repro.escape_ledger.Node"].replica
    assert broken_engine.classes["repro.global_residency.Peer"].replica
    assert broken_engine.classes["repro.cross_call.Worker"].replica
    assert not broken_engine.classes["repro.escape_ledger.System"].replica
    assert not broken_engine.classes["repro.cross_call.Grid"].replica


def test_domain_conflicts_join_upward():
    sources = collect_sources([FIXTURES / "broken"])
    engine = OwnershipEngine(sources)
    # A joined lattice never demotes: shared absorbs replica-local.
    from repro.analysis.ownership import _join
    assert _join("replica-local", "shared") == "shared"
    assert _join("link", "replica-local") == "link"
    assert _join("shared", "link") == "shared"
    del engine


# ----------------------------------------------------------------------
# The cross_shard annotation
# ----------------------------------------------------------------------

def test_cross_shard_is_identity_at_runtime():
    log = [1, 2, 3]
    assert cross_shard(log, "audit snapshot") is log


def test_cross_shard_marker_carries_value_and_reason():
    marker = CrossShard({"k": 1}, reason="handoff")
    assert marker.value == {"k": 1}
    assert marker.reason == "handoff"


def test_cross_shard_sanctions_the_escape(tmp_path):
    pkg = tmp_path / "repro"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    template = """
class System:
    def __init__(self, names):
        self.sink = Sink()
        self.nodes = [Node(n, self) for n in names]

class Sink:
    def __init__(self):
        self.seen = []
    def take(self, v):
        self.seen.append(v)

class Node:
    def __init__(self, name, system: "System"):
        self.name = name
        self.system = system
        self.log = []

    def run(self, sim):
        yield sim.timeout(1)
        self.system.sink.take({arg})
"""
    (pkg / "bare.py").write_text(template.format(arg="self.log"))
    (pkg / "marked.py").write_text(
        template.format(arg="cross_shard(self.log)")
    )
    sources = collect_sources([tmp_path])
    findings = collect_findings(sources, [cls() for cls in OWNERSHIP_RULES])
    assert {(f.rule, f.module) for f in findings} == {("SHD001", "repro.bare")}


# ----------------------------------------------------------------------
# Rule registration
# ----------------------------------------------------------------------

def test_shd_rules_registered_in_catalog():
    catalog = rule_catalog()
    for rule_id in ("SHD001", "SHD002", "SHD003"):
        assert rule_id in catalog
        assert catalog[rule_id]


def test_shd_rules_carry_explanations():
    for cls in OWNERSHIP_RULES:
        rule = cls()
        assert rule.explanation, f"{rule.rule_id} has no --explain text"


# ----------------------------------------------------------------------
# The real tree and the partition manifest
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def real_manifest(real_sources):
    return partition_manifest(real_sources)


@pytest.mark.lint
def test_real_tree_has_no_unwaived_shd_findings(real_sources):
    findings = [
        f for f in run_rules(
            real_sources, [cls() for cls in OWNERSHIP_RULES]
        )
    ]
    assert findings == [], "\n".join(f.render() for f in findings)


@pytest.mark.lint
def test_manifest_chain_and_a2m_are_shardable(real_manifest):
    systems = real_manifest["systems"]
    assert set(systems) == set(SYSTEM_MODULES)
    assert systems["chain"]["shardable"] is True
    assert systems["a2m"]["shardable"] is True
    assert systems["chain"]["blocking_findings"] == []
    assert systems["a2m"]["blocking_findings"] == []


@pytest.mark.lint
def test_manifest_peer_review_blocked_only_by_waived_findings(real_manifest):
    system = real_manifest["systems"]["peer_review"]
    assert system["shardable"] is False
    assert system["blocking_findings"], "expected blocking findings"
    # Every blocker carries an inline rationale waiver: the lint gate is
    # clean, but a waiver never flips the shardable verdict.
    assert all(entry["waived"] for entry in system["blocking_findings"])


@pytest.mark.lint
def test_manifest_edges_carry_endpoints_and_message_types(real_manifest):
    chain_edges = real_manifest["systems"]["chain"]["cross_shard_edges"]
    assert chain_edges, "chain should have channel edges"
    for edge in chain_edges:
        assert edge["kind"] in ("send", "broadcast", "put")
        assert edge["src"].startswith("repro.systems.")
        assert edge["message_type"]
    message_types = {edge["message_type"] for edge in chain_edges}
    assert "ChainSubmit" in message_types
    assert "ChainReply" in message_types


@pytest.mark.lint
def test_manifest_state_sets_partition_every_attribute(real_manifest):
    chain = real_manifest["systems"]["chain"]
    state = chain["state"]
    assert "_ChainNode.store" in state["replica-local"]
    assert "_ChainNode.inbox" in state["link"]
    assert "_ChainNode.system" in state["shared"]
    listed = {name for bucket in state.values() for name in bucket}
    from_classes = {
        f"{cls_name}.{attr}"
        for cls_name, cls in chain["classes"].items()
        for attr in cls["attributes"]
    }
    assert listed == from_classes


@pytest.mark.lint
def test_manifest_replica_roles_match_topology(real_manifest):
    systems = real_manifest["systems"]
    assert systems["chain"]["classes"]["_ChainNode"]["role"] == "replica"
    assert systems["chain"]["classes"]["ChainReplication"]["role"] == "singleton"
    assert systems["bft"]["classes"]["_Replica"]["role"] == "replica"
    assert systems["peer_review"]["classes"]["Witness"]["role"] == "replica"


@pytest.mark.lint
def test_manifest_verdicts_match_the_committed_manifest(real_manifest):
    import json

    committed = json.loads(
        (Path(__file__).parent.parent / "benchmarks" / "results"
         / "partition_manifest.json").read_text()
    )

    def verdicts(manifest):
        return {
            name: (system["shardable"], system["blocking_findings"])
            for name, system in manifest["systems"].items()
        }

    assert verdicts(real_manifest) == verdicts(committed), (
        "partition manifest drifted; regenerate with "
        "`python -m repro lint --partition-manifest "
        "benchmarks/results/partition_manifest.json`"
    )
