"""Rule framework: findings, the rule registry, baselines, suppressions.

A *rule* inspects sources and yields :class:`Finding` records.  Two rule
shapes exist: per-file rules (determinism, sim-safety) and project rules
(trusted-boundary checking) that need the whole module set at once.

Intentional exceptions are handled two ways, mirroring mature linters:

* **inline** — a ``# lint: ignore[RULE-ID]`` comment on the offending
  line suppresses that rule there, keeping the waiver next to the code;
* **baseline** — a JSON file of fingerprinted findings accepted at some
  point in time, so a new pass can be introduced without first fixing
  (or blessing inline) every historical hit.  Fingerprints hash the
  rule, the module, and the normalised source line — not the line
  *number* — so unrelated edits above a waived line do not invalidate it.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.analysis.walker import SourceFile

_IGNORE_RE = re.compile(r"#\s*lint:\s*ignore\[([A-Z0-9, -]+)\]")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location.

    *occurrence* distinguishes repeated identical hits: when the same
    rule flags the same normalised line twice in one module, the second
    hit is occurrence 1, the third 2, and so on (assigned by
    :func:`collect_findings`).  Without it the two hits shared one
    fingerprint and a single baseline entry silently waived both.
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
            # Occurrence 0 keeps the historical basis so existing
            # baseline entries stay valid across the migration.
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
        return Finding(
            rule=self.rule_id,
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


def default_rules() -> list[Rule]:
    """Every shipped pass, instantiated fresh, in reporting order."""
    from repro.analysis.boundaries import TrustedBoundaryRule
    from repro.analysis.determinism import DETERMINISM_RULES
    from repro.analysis.hotpath import HOTPATH_RULES
    from repro.analysis.interference import INTERFERENCE_RULES
    from repro.analysis.liveness import LIVENESS_RULES
    from repro.analysis.observability import OBSERVABILITY_RULES
    from repro.analysis.sim_safety import SIM_SAFETY_RULES
    from repro.analysis.taint import TAINT_RULES

    families = (
        DETERMINISM_RULES, SIM_SAFETY_RULES, OBSERVABILITY_RULES,
        (TrustedBoundaryRule,), TAINT_RULES, INTERFERENCE_RULES,
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
# Suppression: inline ignores and the baseline file
# ----------------------------------------------------------------------

def inline_ignores(src: SourceFile, line: int) -> set[str]:
    """Rule IDs waived by a ``# lint: ignore[...]`` comment on *line*."""
    match = _IGNORE_RE.search(src.line_text(line))
    if not match:
        return set()
    return {part.strip() for part in match.group(1).split(",") if part.strip()}


def _suppressed_inline(finding: Finding, sources_by_path: dict[str, SourceFile]) -> bool:
    src = sources_by_path.get(finding.path)
    if src is None:
        return False
    return finding.rule in inline_ignores(src, finding.line)


@dataclass
class Baseline:
    """Accepted historical findings, keyed by fingerprint."""

    fingerprints: set[str]
    path: Path | None = None
    entries: list[dict] = None  # raw file entries, for stale reporting

    def __post_init__(self) -> None:
        if self.entries is None:
            self.entries = []

    @classmethod
    def load(cls, path: Path | None) -> "Baseline":
        if path is None or not Path(path).exists():
            return cls(set(), Path(path) if path else None)
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        entries = payload.get("findings", [])
        return cls(
            {entry["fingerprint"] for entry in entries}, Path(path), entries
        )

    def contains(self, finding: Finding) -> bool:
        return finding.fingerprint() in self.fingerprints

    def stale_entries(self, current: Iterable[Finding]) -> list[dict]:
        """Baseline entries matching none of *current* (pre-suppression).

        A stale entry means the offending line was fixed or rewritten:
        the waiver no longer waives anything and should be removed
        before it silently blesses a future, unrelated regression that
        happens to hash the same.
        """
        live = {finding.fingerprint() for finding in current}
        return [e for e in self.entries if e["fingerprint"] not in live]

    def prune(self, current: Iterable[Finding]) -> list[dict]:
        """Drop stale entries, rewrite the file, return what was removed."""
        stale = self.stale_entries(current)
        if not stale or self.path is None:
            return stale
        dead = {entry["fingerprint"] for entry in stale}
        self.entries = [e for e in self.entries if e["fingerprint"] not in dead]
        self.fingerprints -= dead
        payload = {
            "comment": (
                "Accepted lint findings; regenerate with "
                "`python -m repro lint --update-baseline`."
            ),
            "findings": self.entries,
        }
        self.path.write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8"
        )
        return stale

    @staticmethod
    def write(path: Path, findings: Sequence[Finding]) -> None:
        payload = {
            "comment": (
                "Accepted lint findings; regenerate with "
                "`python -m repro lint --update-baseline`."
            ),
            "findings": sorted(
                (
                    {
                        "rule": f.rule,
                        "module": f.module,
                        "snippet": f.snippet,
                        **({"occurrence": f.occurrence} if f.occurrence else {}),
                        "fingerprint": f.fingerprint(),
                    }
                    for f in findings
                ),
                key=lambda entry: (entry["rule"], entry["module"], entry["fingerprint"]),
            ),
        }
        Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def default_baseline_path() -> Path:
    """The baseline shipped inside the package (always present)."""
    return Path(__file__).resolve().parent / "baseline.json"


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
    fingerprint; occurrence 0 keeps the pre-migration fingerprint.
    """
    rules = list(rules) if rules is not None else default_rules()
    findings: list[Finding] = []
    for rule in rules:
        if isinstance(rule, ProjectRule):
            findings.extend(rule.check_project(sources))
        else:
            for src in sources:
                findings.extend(rule.check(src))
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
    baseline: Baseline | None = None,
) -> list[Finding]:
    """Drop findings waived inline or accepted in the baseline."""
    sources_by_path = {str(src.path): src for src in sources}
    kept = []
    for finding in findings:
        if _suppressed_inline(finding, sources_by_path):
            continue
        if baseline is not None and baseline.contains(finding):
            continue
        kept.append(finding)
    return kept


def run_rules(
    sources: Sequence[SourceFile],
    rules: Iterable[Rule] | None = None,
    baseline: Baseline | None = None,
) -> list[Finding]:
    """Run *rules* over *sources*, dropping suppressed findings."""
    return apply_suppressions(collect_findings(sources, rules), sources, baseline)
