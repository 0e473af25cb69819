"""Tests for the static-analysis subsystem (repro.analysis).

Fixture snippets seed one violation of every rule (and a matching clean
variant), and the shipped codebase itself must lint clean with every
inline waiver still waiving something — that last test is the CI gate
DESIGN.md's determinism and TCB promises hang on.
"""

from __future__ import annotations

import ast
import json
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    TcbReport,
    collect_findings,
    render_json,
    render_sarif,
    render_text,
    rule_catalog,
    run_rules,
)
from repro.analysis.boundaries import TrustedBoundaryRule
from repro.analysis.determinism import (
    DatetimeNowRule,
    EnvironReadRule,
    SetOrderingRule,
    UnseededRandomRule,
    WallClockRule,
)
from repro.analysis.rules import inline_ignores
from repro.analysis.walker import chain_parts, parse_file


def _write_module(tmp_path: Path, relpath: str, source: str) -> Path:
    """Write *source* under tmp_path, creating package __init__ files."""
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


def _rule_hits(rule, tmp_path: Path, source: str, name: str = "repro/sample.py"):
    src = parse_file(_write_module(tmp_path, name, source))
    return list(rule.check(src))


# ----------------------------------------------------------------------
# Determinism rules
# ----------------------------------------------------------------------

def test_det001_flags_wall_clock(tmp_path):
    hits = _rule_hits(
        WallClockRule(), tmp_path,
        "import time\n\ndef now_us():\n    return time.time() * 1e6\n",
    )
    assert [h.rule for h in hits] == ["DET001"]
    assert hits[0].line == 4


def test_det001_ignores_virtual_clock(tmp_path):
    hits = _rule_hits(
        WallClockRule(), tmp_path,
        "def now_us(sim):\n    return sim.now\n",
    )
    assert hits == []


def test_det002_flags_datetime_now(tmp_path):
    hits = _rule_hits(
        DatetimeNowRule(), tmp_path,
        "from datetime import datetime\n\nSTAMP = datetime.now()\n",
    )
    assert [h.rule for h in hits] == ["DET002"]


def test_det003_flags_global_random_and_unseeded_ctor(tmp_path):
    hits = _rule_hits(
        UnseededRandomRule(), tmp_path,
        "import random\n\n"
        "def draw():\n"
        "    return random.random() + random.Random().random()\n",
    )
    assert {h.rule for h in hits} == {"DET003"}
    assert len(hits) == 2


def test_det003_allows_seeded_random(tmp_path):
    hits = _rule_hits(
        UnseededRandomRule(), tmp_path,
        "import random\n\n"
        "def draw(seed):\n"
        "    return random.Random(seed).random()\n",
    )
    assert hits == []


def test_det004_flags_environ_reads(tmp_path):
    hits = _rule_hits(
        EnvironReadRule(), tmp_path,
        "import os\n\n"
        "A = os.environ['HOME']\n"
        "B = os.getenv('HOME')\n"
        "C = os.environ.get('HOME')\n",
    )
    assert [h.rule for h in hits] == ["DET004"] * 3


def test_det005_flags_set_ordering(tmp_path):
    hits = _rule_hits(
        SetOrderingRule(), tmp_path,
        "def order(xs):\n"
        "    for x in set(xs):\n"
        "        pass\n"
        "    return list(set(xs))\n",
    )
    assert [h.rule for h in hits] == ["DET005", "DET005"]


def test_det005_allows_sorted(tmp_path):
    hits = _rule_hits(
        SetOrderingRule(), tmp_path,
        "def order(xs):\n"
        "    for x in sorted(set(xs)):\n"
        "        pass\n"
        "    return sorted(set(xs))\n",
    )
    assert hits == []


# ----------------------------------------------------------------------
# Boundary rule (fixture-level; the real tree is covered by
# tests/test_tcb_boundaries.py)
# ----------------------------------------------------------------------

def test_bnd001_flags_trusted_importing_untrusted(tmp_path):
    path = _write_module(
        tmp_path, "repro/core/evil.py",
        "from repro.systems.bft import BftCounter\n",
    )
    src = parse_file(path)
    assert src.module == "repro.core.evil"
    hits = list(TrustedBoundaryRule().check_project([src]))
    assert [h.rule for h in hits] == ["BND001"]
    assert "repro.systems.bft" in hits[0].message


def test_bnd001_ignores_type_checking_imports(tmp_path):
    path = _write_module(
        tmp_path, "repro/core/annotations_only.py",
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from repro.systems.bft import BftCounter\n",
    )
    assert list(TrustedBoundaryRule().check_project([parse_file(path)])) == []


# ----------------------------------------------------------------------
# Suppression: inline waivers
# ----------------------------------------------------------------------

def test_inline_ignore_suppresses_finding(tmp_path):
    path = _write_module(
        tmp_path, "repro/waived.py",
        "import time\n\n"
        "def now():\n"
        "    return time.time()  # lint: ignore[DET001]\n",
    )
    findings = run_rules([parse_file(path)])
    assert all(f.rule != "DET001" for f in findings)


def test_identical_lines_get_distinct_fingerprints(tmp_path):
    # Two byte-identical offending lines must not share a fingerprint,
    # or a SARIF viewer tracks them as one finding.
    source = (
        "import time\n\n"
        "def a():\n"
        "    return time.time()\n\n"
        "def b():\n"
        "    return time.time()\n"
    )
    path = _write_module(tmp_path, "repro/twice.py", source)
    findings = [f for f in collect_findings([parse_file(path)])
                if f.rule == "DET001"]
    assert len(findings) == 2
    assert findings[0].occurrence == 0 and findings[1].occurrence == 1
    assert findings[0].fingerprint() != findings[1].fingerprint()


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------

def test_render_text_and_json(tmp_path):
    path = _write_module(
        tmp_path, "repro/render_me.py",
        "import time\nNOW = time.time()\n",
    )
    findings = run_rules([parse_file(path)])
    text = render_text(findings)
    assert "DET001" in text and f"{path}:2:" in text

    payload = json.loads(render_json(findings))
    assert payload["count"] == len(findings)
    assert payload["findings"][0]["rule"] == "DET001"
    assert payload["findings"][0]["fingerprint"]


def test_rule_catalog_lists_every_pass():
    catalog = rule_catalog()
    assert {"DET001", "DET002", "DET003", "DET004", "DET005",
            "BND001",
            "SEC001", "SEC002", "SEC003"} <= set(catalog)
    assert all(catalog.values())


def test_render_sarif_is_valid_and_carries_fingerprints(tmp_path):
    path = _write_module(
        tmp_path, "repro/render_me.py",
        "import time\nNOW = time.time()\n",
    )
    findings = run_rules([parse_file(path)])
    document = json.loads(render_sarif(findings))
    assert document["version"] == "2.1.0"
    run = document["runs"][0]
    assert run["tool"]["driver"]["name"] == "tnic-lint"
    result = run["results"][0]
    assert result["ruleId"] == "DET001"
    assert result["partialFingerprints"]["tnicLint/v1"] == findings[0].fingerprint()
    region = result["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] == 2


def _sarif_document_for(tmp_path, name, source):
    path = _write_module(tmp_path, name, source)
    findings = run_rules([parse_file(path)])
    assert findings, "fixture must produce findings"
    return findings, json.loads(render_sarif(findings))


def test_render_sarif_matches_the_2_1_0_schema_shape(tmp_path):
    """Required keys, rule metadata for every result, stable ruleIndex."""
    _findings, document = _sarif_document_for(
        tmp_path, "repro/shape.py",
        "import time\nimport random\n"
        "NOW = time.time()\nDICE = random.random()\n",
    )
    assert document["$schema"].endswith("sarif-2.1.0.json")
    assert document["version"] == "2.1.0"
    assert isinstance(document["runs"], list) and document["runs"]
    run = document["runs"][0]
    driver = run["tool"]["driver"]
    assert driver["name"] and driver["informationUri"]
    rule_ids = [rule["id"] for rule in driver["rules"]]
    assert rule_ids == sorted(rule_ids), "driver rules must be sorted"
    for rule in driver["rules"]:
        assert rule["shortDescription"]["text"]
    for result in run["results"]:
        assert set(result) >= {"ruleId", "ruleIndex", "level", "message",
                               "locations", "partialFingerprints"}
        # ruleIndex must point at the matching driver rule (§3.27.6).
        assert rule_ids[result["ruleIndex"]] == result["ruleId"]
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"]
        assert location["region"]["startLine"] >= 1
        assert location["region"]["startColumn"] >= 1


def test_render_sarif_indexes_project_rules(tmp_path):
    """A whole-project pass's findings carry rule metadata like any other."""
    _findings, document = _sarif_document_for(
        tmp_path, "repro/roce/unbounded.py",
        "class Endpoint:\n"
        "    def __init__(self, sim):\n"
        "        self.sim = sim\n"
        "        self._pending = {}\n"
        "\n"
        "    def call(self, psn):\n"
        "        done = self.sim.event()\n"
        "        self._pending[psn] = done\n"
        "        return done\n",
    )
    run = document["runs"][0]
    rule_ids = [rule["id"] for rule in run["tool"]["driver"]["rules"]]
    liv_results = [r for r in run["results"]
                   if r["ruleId"].startswith("LIV")]
    assert liv_results, "expected LIV findings from the fixture"
    for result in liv_results:
        assert rule_ids[result["ruleIndex"]] == result["ruleId"]


# ----------------------------------------------------------------------
# Attribute-chain helpers shared by the passes
# ----------------------------------------------------------------------

def _expr(source: str) -> ast.expr:
    return ast.parse(source, mode="eval").body


def test_chain_parts_peels_subscripts_and_rejects_call_roots():
    assert chain_parts(_expr("a.b.c")) == ["a", "b", "c"]
    assert chain_parts(_expr("a.b[k].c[0]")) == ["a", "b", "c"]
    assert chain_parts(_expr("name")) == ["name"]
    # A call result is a fresh value: a chain rooted in one is no chain.
    assert chain_parts(_expr("make().b.c")) is None
    assert chain_parts(_expr("a.b().c")) is None


# ----------------------------------------------------------------------
# The shipped tree itself
# ----------------------------------------------------------------------

@pytest.mark.lint
def test_shipped_codebase_lints_clean_and_every_waiver_waives(
        real_sources, real_findings, real_unwaived):
    raw, unwaived = real_findings, real_unwaived
    assert unwaived == [], "\n".join(f.render() for f in unwaived)

    # ... and every inline waiver still waives something.  (The analysis
    # package is skipped: its docstrings quote the waiver syntax.)
    hits = {(f.path, f.line, f.rule) for f in raw}
    stale = [
        f"{src.path}:{lineno}: stale `# lint: ignore[{rule}]`"
        for src in real_sources
        if not src.module.startswith("repro.analysis")
        for lineno in range(1, len(src.lines) + 1)
        for rule in sorted(inline_ignores(src, lineno))
        if (str(src.path), lineno, rule) not in hits
    ]
    assert stale == [], "\n".join(stale)


@pytest.mark.lint
def test_one_lint_run_indexes_the_tree_once(
        real_sources, real_findings, real_index_builds):
    # The session's real-tree lint ran every rule; the taint, hot-path
    # and liveness families shared its one function index...
    assert real_index_builds == [len(real_sources)]
    # ...and no pass holds an index builder the spy could not see.
    holders = sorted(
        name for name, module in sys.modules.items()
        if name.startswith("repro.analysis") and hasattr(module, "index_functions")
    )
    assert holders == ["repro.analysis.dataflow", "repro.analysis.rules"]


@pytest.mark.lint
def test_tcb_accounting_measures_trusted_split(real_sources):
    from repro.core.resources import PAPER_TCB_LOC

    report = TcbReport.from_sources(real_sources)
    assert report.trusted_loc > 0
    assert report.untrusted_loc > report.trusted_loc
    assert PAPER_TCB_LOC["tnic"] == 2_114
    # Measured TCB must stay the same order of magnitude as the paper's
    # 2,114-LoC attestation kernel — a 10x blow-up means trusted code
    # sprawl that Table 4's argument no longer covers.
    assert report.trusted_loc < 10 * PAPER_TCB_LOC["tnic"]
    assert f"{report.trusted_loc:6d} LoC" in report.render()
