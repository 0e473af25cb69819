"""Catalog completeness: every shipped rule is explainable and documented.

As rule families accumulated (DET, BND, SEC, PERF, LIV)
nothing verified that a newly registered rule actually lands in
``rule_catalog()`` with usable ``--explain`` text and a row in
``docs/analysis.md``.  This module closes that drift for every rule at
once — adding a rule without documenting it now fails tier-1.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.analysis.rules import (
    Rule,
    default_rules,
    rule_by_id,
    rule_catalog,
)

DOCS = Path(__file__).parent.parent / "docs" / "analysis.md"

#: SIM (001-003), OBS (001), RACE (001-003) and TNT (001-002) were
#: retired whole; like a retired number, a retired family prefix is
#: never reused.
EXPECTED_FAMILIES = {"DET", "BND", "SEC", "PERF", "LIV"}

#: Numbers of retired rules.  Ids are never reused or renumbered —
#: waivers and SARIF fingerprints key on them — so a family may have
#: exactly these gaps.
RETIRED_NUMBERS = {"LIV": {1, 2, 3, 4}, "PERF": {4, 5, 6}}


def test_liveness_rules_are_all_registered():
    # The surviving LIV rules must each resolve in the catalog and --explain.
    for rule_id in ("LIV005",):
        assert rule_id in rule_catalog()
        rule = rule_by_id(rule_id)
        assert rule is not None and rule.explanation.strip()


def _family(rule_id: str) -> str:
    return rule_id.rstrip("0123456789")


def test_every_rule_family_is_shipped():
    families = {_family(rule.rule_id) for rule in default_rules()}
    assert families == EXPECTED_FAMILIES


def test_every_rule_appears_in_the_catalog_with_a_description():
    catalog = rule_catalog()
    for rule in default_rules():
        assert rule.rule_id in catalog
        assert catalog[rule.rule_id].strip(), (
            f"{rule.rule_id} has an empty description"
        )


def test_every_rule_has_working_explain_text():
    # --explain resolves through rule_by_id and prints description +
    # explanation; both must be non-empty for every registered id.
    for rule_id in rule_catalog():
        rule = rule_by_id(rule_id)
        assert rule is not None, f"--explain cannot resolve {rule_id}"
        assert rule.description.strip()
        assert rule.explanation.strip(), (
            f"{rule_id} has no --explain rationale"
        )


def test_every_rule_is_documented_in_docs_analysis_md():
    text = DOCS.read_text(encoding="utf-8")
    documented = set(re.findall(r"`([A-Z]{3,4}\d{3})`", text))
    shipped = set(rule_catalog())
    missing = shipped - documented
    assert not missing, (
        f"rules shipped but undocumented in docs/analysis.md: "
        f"{sorted(missing)}"
    )


def test_docs_do_not_promise_rules_that_no_longer_ship():
    text = DOCS.read_text(encoding="utf-8")
    documented = set(re.findall(r"`([A-Z]{3,4}\d{3})`", text))
    shipped = set(rule_catalog())
    phantom = documented - shipped
    assert not phantom, (
        f"rules documented in docs/analysis.md but not shipped: "
        f"{sorted(phantom)}"
    )


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


def test_rule_ids_are_unique_across_passes():
    ids = [rule.rule_id for rule in default_rules()]
    assert len(ids) == len(set(ids)), "duplicate rule id registered"


@pytest.mark.parametrize("family", sorted(EXPECTED_FAMILIES))
def test_each_family_numbers_contiguously_from_001(family):
    numbers = {
        int(rule_id[len(family):])
        for rule_id in rule_catalog()
        if _family(rule_id) == family
    }
    retired = RETIRED_NUMBERS.get(family, set())
    assert not numbers & retired, f"{family} reuses a retired id"
    assert numbers | retired == set(range(1, max(numbers | retired) + 1)), (
        f"{family} rule numbering has gaps: {sorted(numbers)}"
    )
