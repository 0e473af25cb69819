"""The liveness pass: LIV rules and the fixture corpus.

Two layers under test, mirroring the corpus under
``tests/fixtures/liveness/``:

* the static LIV rules — every seeded liveness bug in ``broken/``
  must be reported at exactly its line, and nothing in ``clean/`` may
  be flagged (deadline-composed network waits);
* the real tree — zero unwaived LIV findings.

Plus the ``lint --only`` selector: exact ids and family prefixes
filter the findings, and unknown selectors exit 2 listing the valid
prefixes.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.dataflow import index_functions
from repro.analysis.liveness import LIVENESS_RULES, LivenessEngine
from repro.analysis.rules import collect_findings
from repro.analysis.walker import collect_sources
from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures" / "liveness"

LIV_IDS = ("LIV005",)


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
        ("LIV005", "repro.roce.unbounded", 11),    # pending w/o deadline
    }
    got = {(f.rule, f.module, f.line) for f in _corpus_findings("broken")}
    assert got == expected, (
        f"missed: {expected - got}; spurious: {got - expected}"
    )


def test_clean_corpus_is_silent():
    assert _corpus_findings("clean") == []


def test_liv005_points_at_the_sanctioned_deadline_idiom():
    pending = next(
        f for f in _corpus_findings("broken")
        if f.rule == "LIV005" and f.line == 11
    )
    assert "RpcEndpoint.call" in pending.message


def test_engine_hits_are_deterministically_ordered():
    functions = index_functions(collect_sources([FIXTURES / "broken"]))
    a = LivenessEngine(functions)
    b = LivenessEngine(functions)
    key = lambda f: (f.path, f.line, f.col, f.rule)  # noqa: E731
    assert [key(f) for f in a.findings] == [key(f) for f in b.findings]
    assert [key(f) for f in a.findings] == sorted(key(f) for f in a.findings)


# ----------------------------------------------------------------------
# The real tree
# ----------------------------------------------------------------------

@pytest.mark.lint
def test_real_tree_has_no_unwaived_liv_findings(real_unwaived):
    liv_ids = {cls.rule_id for cls in LIVENESS_RULES}
    findings = [f for f in real_unwaived if f.rule in liv_ids]
    assert findings == [], "\n".join(f.render() for f in findings)


# ----------------------------------------------------------------------
# lint --only
# ----------------------------------------------------------------------

def test_only_prefix_filters_to_the_family(capsys):
    target = str(FIXTURES / "broken")
    assert main(["lint", target, "--only", "LIV", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 1
    assert all(f["rule"].startswith("LIV") for f in payload["findings"])


def test_only_exact_rule_filters_to_one_rule(capsys):
    target = str(FIXTURES / "broken")
    assert main(
        ["lint", target, "--only", "LIV005", "--format", "json"]
    ) == 1
    payload = json.loads(capsys.readouterr().out)
    assert {f["rule"] for f in payload["findings"]} == {"LIV005"}


def test_only_with_no_matching_findings_exits_clean(capsys):
    target = str(FIXTURES / "clean")
    assert main(["lint", target, "--only", "LIV"]) == 0
    assert "clean" in capsys.readouterr().out


def test_only_unknown_selector_exits_2_listing_prefixes(capsys):
    assert main(["lint", "--only", "NOPE"]) == 2
    err = capsys.readouterr().err
    assert "NOPE" in err
    for prefix in ("DET", "LIV", "PERF"):
        assert prefix in err
