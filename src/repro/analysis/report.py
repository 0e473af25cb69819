"""Finding rendering and measured-TCB accounting.

Findings render in two modes: a human ``path:line:col RULE message``
listing, and ``--format json`` — a stable, sorted document that can be
diffed across PRs exactly like the benchmark artefacts.

The TCB accounting backs Table 4 with measurement: it counts executable
LoC per module from the AST (blank lines, comments and docstrings
excluded — the same convention as ``cloc``-style tools the paper's
2,114-LoC figure comes from) and splits the total along
:data:`~repro.analysis.boundaries.TRUSTED_PACKAGES`, so the
trusted-vs-untrusted split is a measured quantity, not only a hardcoded
constant.  It is measured and bound-checked on every run
(``tests/test_analysis.py``, ``benchmarks/bench_tab04_tcb_size.py``)
and never written down: a number that moves with every source edit is
not an artifact worth committing.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass
from typing import Sequence

from repro.analysis.boundaries import is_trusted
from repro.analysis.rules import Finding
from repro.analysis.walker import SourceFile

# ----------------------------------------------------------------------
# Findings rendering
# ----------------------------------------------------------------------

def render_text(findings: Sequence[Finding]) -> str:
    if not findings:
        return "lint: clean (0 findings)"
    lines = [finding.render() for finding in findings]
    lines.append(f"lint: {len(findings)} finding(s)")
    return "\n".join(lines)


def render_json(findings: Sequence[Finding]) -> str:
    payload = {
        "findings": [finding.to_json() for finding in findings],
        "count": len(findings),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def render_sarif(findings: Sequence[Finding]) -> str:
    """SARIF 2.1.0 document for CI / editor consumption.

    Only rules that actually fired are listed in the driver metadata
    (SARIF permits this, and it keeps the artifact small); every result
    carries a ``ruleIndex`` into that array, and fingerprints travel as
    ``partialFingerprints`` so SARIF viewers track findings across
    commits by content, not by line number.
    """
    from repro.analysis.rules import rule_catalog

    catalog = rule_catalog()
    fired = sorted({finding.rule for finding in findings})
    rule_index = {rule_id: index for index, rule_id in enumerate(fired)}
    document = {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "tnic-lint",
                        "informationUri": "docs/analysis.md",
                        "rules": [
                            {
                                "id": rule_id,
                                "shortDescription": {
                                    "text": catalog.get(rule_id, rule_id)
                                },
                            }
                            for rule_id in fired
                        ],
                    }
                },
                "results": [
                    {
                        "ruleId": finding.rule,
                        "ruleIndex": rule_index[finding.rule],
                        "level": "error",
                        "message": {"text": finding.message},
                        "partialFingerprints": {
                            "tnicLint/v1": finding.fingerprint()
                        },
                        "locations": [
                            {
                                "physicalLocation": {
                                    "artifactLocation": {"uri": finding.path},
                                    "region": {
                                        "startLine": finding.line,
                                        "startColumn": finding.col + 1,
                                    },
                                }
                            }
                        ],
                    }
                    for finding in findings
                ],
            }
        ],
    }
    return json.dumps(document, indent=2)


# ----------------------------------------------------------------------
# LoC accounting
# ----------------------------------------------------------------------

def _docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers occupied by module/class/function docstrings."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        body = getattr(node, "body", [])
        if not body:
            continue
        first = body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            end = first.end_lineno or first.lineno
            lines.update(range(first.lineno, end + 1))
    return lines


def executable_loc(src: SourceFile) -> int:
    """Executable lines: total minus blanks, comments and docstrings."""
    doc_lines = _docstring_lines(src.tree)
    count = 0
    for lineno, raw in enumerate(src.lines, start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#") or lineno in doc_lines:
            continue
        count += 1
    return count


@dataclass
class TcbReport:
    """Measured trusted-vs-untrusted code-size split."""

    per_module: dict[str, int]

    @classmethod
    def from_sources(cls, sources: Sequence[SourceFile]) -> "TcbReport":
        return cls({src.module: executable_loc(src) for src in sources})

    @property
    def trusted_loc(self) -> int:
        return sum(
            loc for module, loc in self.per_module.items() if is_trusted(module)
        )

    @property
    def untrusted_loc(self) -> int:
        return sum(
            loc for module, loc in self.per_module.items() if not is_trusted(module)
        )

    def per_package(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for module, loc in self.per_module.items():
            package = ".".join(module.split(".")[:2])
            totals[package] = totals.get(package, 0) + loc
        return totals

    def render(self) -> str:
        from repro.core.resources import PAPER_TCB_LOC

        per_package = dict(sorted(self.per_package().items()))
        width = max(len(name) for name in per_package)
        lines = ["TCB accounting (measured executable LoC)"]
        for package, loc in per_package.items():
            tag = "trusted" if is_trusted(package) else ""
            lines.append(f"  {package:<{width}}  {loc:6d}  {tag}")
        lines.append(
            f"  trusted total   {self.trusted_loc:6d} LoC "
            f"(paper TNIC TCB: {PAPER_TCB_LOC['tnic']:,})"
        )
        lines.append(f"  untrusted total {self.untrusted_loc:6d} LoC")
        fraction = self.trusted_loc / max(1, self.trusted_loc + self.untrusted_loc)
        lines.append(f"  TCB fraction    {100 * fraction:5.1f}% of this repo")
        return "\n".join(lines)
