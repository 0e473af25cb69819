"""Rule framework: findings, the rule registry, inline waivers.

A *rule* inspects sources and yields :class:`Finding` records.  Three rule
shapes exist: per-file rules (determinism), project rules
(trusted-boundary checking) that need the whole module set at once, and
indexed rules (taint flows, hot path, liveness), whose family reports
from one pass over the function index :func:`collect_findings` builds
once per run.

An intentional exception is waived in one way: a
``# lint: ignore[RULE-ID]`` comment on the offending line, with the
rationale beside it, so the waiver lives next to the code it excuses.
A waiver that no longer sits on a raw finding fails tier-1
(``tests/test_analysis.py``).
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import asdict, replace
from typing import Callable, Iterable, Iterator, Sequence

from repro.analysis.dataflow import FunctionInfo, index_functions
from repro.analysis.walker import SourceFile
from repro.sim.record import Record, record

_IGNORE_RE = re.compile(r"#\s*lint:\s*ignore\[([A-Z0-9, -]+)\]")


@record
class Finding(Record):
    """One rule violation at a specific source location.

    *occurrence* distinguishes repeated identical hits: when the same
    rule flags the same normalised line twice in one module, the second
    hit is occurrence 1, the third 2, and so on (assigned by
    :func:`collect_findings`), so each hit has its own fingerprint and
    a SARIF viewer tracks them apart.  Fingerprints hash the rule, the
    module and the normalised source line — not the line *number* — so
    an edit above a finding does not change its identity.
    """

    rule: str
    module: str
    path: str
    line: int
    col: int
    message: str
    snippet: str = ""
    occurrence: int = 0

    def fingerprint(self) -> str:
        basis = f"{self.rule}|{self.module}|{' '.join(self.snippet.split())}"
        if self.occurrence:
            basis += f"|{self.occurrence}"
        return hashlib.sha256(basis.encode()).hexdigest()[:16]

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_json(self) -> dict:
        payload = asdict(self)
        payload["fingerprint"] = self.fingerprint()
        return payload


class Rule:
    """A per-file analysis pass.

    Concrete rules MUST set a real ``rule_id``: the empty default is a
    registration guard, not a value.  A rule registered without one
    would ship findings under a bogus id that ``--explain``, waivers and
    SARIF could never resolve, so instantiation raises instead.
    """

    rule_id: str = ""
    description: str = ""
    #: Longer rationale shown by ``python -m repro lint --explain RULE``
    #: (falls back to *description* when empty).
    explanation: str = ""

    def __init__(self) -> None:
        if not self.rule_id:
            raise TypeError(
                f"{type(self).__name__} registered without a rule_id; "
                "every concrete rule must declare one (e.g. 'DET001')"
            )

    def check(self, src: SourceFile) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, src: SourceFile, line: int, col: int, message: str) -> Finding:
        return finding_at(self.rule_id, src, line, col, message)


def finding_at(
    rule_id: str, src: SourceFile, line: int, col: int, message: str,
) -> Finding:
    """A finding of *rule_id* at *line* of *src*, carrying its snippet."""
    return Finding(
        rule=rule_id,
        module=src.module,
        path=str(src.path),
        line=line,
        col=col,
        message=message,
        snippet=src.line_text(line),
    )


class ProjectRule(Rule):
    """A whole-project pass (sees every module at once)."""

    def check_project(self, sources: Sequence[SourceFile]) -> Iterator[Finding]:
        raise NotImplementedError

    def check(self, src: SourceFile) -> Iterator[Finding]:  # pragma: no cover
        return iter(())


#: A family's one pass: every finding of the family on the sources,
#: given the function index they share.
FamilyPass = Callable[[Sequence[SourceFile], list[FunctionInfo]], Iterable[Finding]]


class IndexedRule(Rule):
    """A rule whose family reports from one pass over the function index.

    The class carries only the catalog text and the id that selects its
    findings: :func:`collect_findings` indexes the sources once and
    runs each selected family's :attr:`family_pass` once.
    """

    family_pass: FamilyPass


def default_rules() -> list[Rule]:
    """Every shipped pass, instantiated fresh, in reporting order."""
    from repro.analysis.boundaries import TrustedBoundaryRule
    from repro.analysis.determinism import DETERMINISM_RULES
    from repro.analysis.hotpath import HOTPATH_RULES
    from repro.analysis.liveness import LIVENESS_RULES
    from repro.analysis.taint import TAINT_RULES

    families = (
        DETERMINISM_RULES, (TrustedBoundaryRule,), TAINT_RULES,
        HOTPATH_RULES, LIVENESS_RULES,
    )
    return [cls() for family in families for cls in family]


def rule_catalog() -> dict[str, str]:
    """``{rule_id: description}`` for every shipped rule."""
    return {rule.rule_id: rule.description for rule in default_rules()}


def rule_by_id(rule_id: str) -> Rule | None:
    """The shipped rule with *rule_id*, or None (for ``--explain``)."""
    for rule in default_rules():
        if rule.rule_id == rule_id:
            return rule
    return None


# ----------------------------------------------------------------------
# Suppression: inline waivers
# ----------------------------------------------------------------------

def inline_ignores(src: SourceFile, line: int) -> set[str]:
    """Rule IDs waived by a ``# lint: ignore[...]`` comment on *line*."""
    match = _IGNORE_RE.search(src.line_text(line))
    if not match:
        return set()
    return {part.strip() for part in match.group(1).split(",") if part.strip()}


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------

def collect_findings(
    sources: Sequence[SourceFile],
    rules: Iterable[Rule] | None = None,
) -> list[Finding]:
    """Every raw finding (no suppression), with occurrence indices set.

    Findings that share (rule, module, normalised snippet) are numbered
    0, 1, 2, ... in (path, line, col) order so each gets a distinct
    fingerprint.  The function index is built once, and each indexed
    family's pass runs once, whatever number of its rules is selected.
    """
    rules = list(rules) if rules is not None else default_rules()
    findings: list[Finding] = []
    families: dict[FamilyPass, set[str]] = {}
    for rule in rules:
        if isinstance(rule, IndexedRule):
            families.setdefault(rule.family_pass, set()).add(rule.rule_id)
        elif isinstance(rule, ProjectRule):
            findings.extend(rule.check_project(sources))
        else:
            for src in sources:
                findings.extend(rule.check(src))
    if families:
        functions = index_functions(sources)
        for family_pass, rule_ids in families.items():
            findings.extend(
                f for f in family_pass(sources, functions) if f.rule in rule_ids)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule, f.message))
    counts: dict[tuple[str, str, str], int] = {}
    numbered: list[Finding] = []
    for finding in findings:
        key = (finding.rule, finding.module, " ".join(finding.snippet.split()))
        n = counts.get(key, 0)
        counts[key] = n + 1
        numbered.append(replace(finding, occurrence=n) if n else finding)
    return numbered


def apply_suppressions(
    findings: Iterable[Finding],
    sources: Sequence[SourceFile],
) -> list[Finding]:
    """Drop findings waived by an inline ``# lint: ignore[...]``."""
    sources_by_path = {str(src.path): src for src in sources}
    kept = []
    for finding in findings:
        src = sources_by_path.get(finding.path)
        if src is not None and finding.rule in inline_ignores(src, finding.line):
            continue
        kept.append(finding)
    return kept


def run_rules(
    sources: Sequence[SourceFile],
    rules: Iterable[Rule] | None = None,
) -> list[Finding]:
    """Run *rules* over *sources*, dropping waived findings."""
    return apply_suppressions(collect_findings(sources, rules), sources)
