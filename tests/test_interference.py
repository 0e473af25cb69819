"""The interference checks: RACE lint and schedule perturbation.

Two layers under test:

* the static RACE001–RACE003 rules — every seeded violation in
  ``tests/fixtures/race/broken/`` must be reported at exactly its
  line, and nothing in ``clean/`` may be flagged;
* the schedule-perturbation harness — the same seed must reproduce the
  same schedule byte-for-byte, the default FIFO tie-break must be
  untouched (the golden traces depend on it), and the tier-1 scenarios
  must digest-stable across eight perturbed schedules.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.interference import INTERFERENCE_RULES
from repro.analysis.rules import (
    Rule,
    collect_findings,
    rule_catalog,
    run_rules,
)
from repro.sanitizer import derive_seed, run_sanitize
from repro.sanitizer.perturb import SCENARIOS
from repro.sim import Simulator
from repro.analysis.walker import collect_sources

FIXTURES = Path(__file__).parent / "fixtures" / "race"


# ----------------------------------------------------------------------
# Static corpus: no false negatives on broken/, no positives on clean/
# ----------------------------------------------------------------------

def _corpus_findings(corpus: str):
    sources = collect_sources([FIXTURES / corpus])
    return collect_findings(sources, [cls() for cls in INTERFERENCE_RULES])


def test_broken_corpus_every_rule_fires():
    fired = {f.rule for f in _corpus_findings("broken")}
    assert fired == {"RACE001", "RACE002", "RACE003"}


def test_broken_corpus_detects_exactly_the_seeded_violations():
    expected = {
        ("RACE001", "repro.shared_ledger", 12),   # LEDGER.append
        ("RACE001", "repro.shared_ledger", 13),   # INDEX[...] = ...
        ("RACE001", "repro.shared_ledger", 19),   # global TOTAL +=
        ("RACE002", "repro.stale_counter", 15),   # self.value clobber
        ("RACE002", "repro.stale_counter", 21),   # self.table.update
        ("RACE003", "repro.live_iteration", 15),  # enumerate(self.peers)
        ("RACE003", "repro.live_iteration", 20),  # self.inbox.items()
        ("RACE003", "repro.live_iteration", 26),  # module-level PENDING
    }
    got = {(f.rule, f.module, f.line) for f in _corpus_findings("broken")}
    assert got == expected, (
        f"missed: {expected - got}; spurious: {got - expected}"
    )


def test_race002_message_names_the_read_and_yield_lines():
    finding = next(f for f in _corpus_findings("broken")
                   if f.rule == "RACE002" and f.line == 15)
    assert "read at line 13" in finding.message
    assert "yield at line 14" in finding.message


def test_clean_corpus_is_silent():
    assert _corpus_findings("clean") == []


def test_real_tree_has_no_unwaived_race_findings(real_sources):
    flagged = run_rules(real_sources, [cls() for cls in INTERFERENCE_RULES])
    assert flagged == [], [f"{f.module}:{f.line} {f.rule}" for f in flagged]


def test_rule_catalog_lists_the_interference_pass():
    catalog = rule_catalog()
    assert {"RACE001", "RACE002", "RACE003"} <= set(catalog)


# ----------------------------------------------------------------------
# Satellite: rules must declare their id at registration time
# ----------------------------------------------------------------------

def test_rule_without_rule_id_raises_at_registration():
    class Incomplete(Rule):
        description = "forgot the id"

        def check(self, src):
            return iter(())

    with pytest.raises(TypeError, match="rule_id"):
        Incomplete()


def test_rule_with_rule_id_registers_fine():
    class Complete(Rule):
        rule_id = "TST001"
        description = "declared"

        def check(self, src):
            return iter(())

    assert Complete().rule_id == "TST001"


# ----------------------------------------------------------------------
# Perturbation: seeded, reproducible, FIFO by default
# ----------------------------------------------------------------------

def _completion_order(seed: int | None) -> str:
    sim = Simulator()
    order: list[str] = []

    def waiter(name: str):
        yield sim.timeout(10)
        order.append(name)

    for name in "abcdef":
        sim.process(waiter(name))
    if seed is not None:
        sim.perturb_ties(seed)
    sim.run()
    return "".join(order)


def test_default_tiebreak_is_exact_fifo():
    assert _completion_order(None) == "abcdef"


def test_perturbation_shuffles_ties_reproducibly():
    # Constant pinned on purpose: a change means the perturbation
    # stream (or queue re-keying) changed, which invalidates every
    # recorded divergence seed.
    assert _completion_order(2) == "cdbfea"
    assert _completion_order(2) == _completion_order(2)


def test_different_seeds_reach_different_schedules():
    orders = {_completion_order(seed) for seed in range(6)}
    assert len(orders) > 1


def test_perturb_ties_refuses_a_running_loop():
    sim = Simulator()
    sim._running = True
    with pytest.raises(RuntimeError, match="running"):
        sim.perturb_ties(1)


def test_derive_seed_is_stable_and_collision_free():
    seeds = {
        derive_seed(0, scenario, index)
        for scenario in ("bft", "chain", "a2m")
        for index in range(8)
    }
    assert len(seeds) == 24
    assert derive_seed(0, "bft", 0) == derive_seed(0, "bft", 0)
    assert derive_seed(0, "bft", 0) != derive_seed(1, "bft", 0)


# ----------------------------------------------------------------------
# Harness: tier-1 scenarios digest-stable across eight schedules
# ----------------------------------------------------------------------

def test_scenarios_are_seed_reproducible():
    for name, scenario in SCENARIOS.items():
        seed = derive_seed(7, name, 0)
        assert scenario(seed) == scenario(seed), name


def test_run_sanitize_eight_seeds_all_stable():
    report = run_sanitize(seeds=8)
    assert report.ok, report.render()
    assert {r.name for r in report.results} == {"bft", "chain", "a2m"}
    for result in report.results:
        assert len(result.runs) == 8
        assert result.divergent_seeds == []
    assert "schedule-independent" in report.render()


def test_run_sanitize_validates_arguments():
    with pytest.raises(ValueError, match="seeds"):
        run_sanitize(seeds=0)
    with pytest.raises(ValueError, match="unknown scenario"):
        run_sanitize(scenario_names=["bft", "nope"])


def test_run_sanitize_report_json_is_reproducible():
    import json

    first = run_sanitize(scenario_names=["bft"], seeds=2, root_seed=3)
    second = run_sanitize(scenario_names=["bft"], seeds=2, root_seed=3)
    assert json.dumps(first.to_json(), sort_keys=True) == \
        json.dumps(second.to_json(), sort_keys=True)
