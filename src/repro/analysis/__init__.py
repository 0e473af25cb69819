"""Static analysis for the reproduction: determinism, boundaries, taint, cost.

DESIGN.md promises two architectural invariants that nothing previously
checked: the discrete-event simulation is deterministic (§2), and the
trusted packages mirror the paper's minimal TCB (Table 4).  This package
turns both into mechanically enforced, CI-gated properties:

* :mod:`repro.analysis.walker`      — source discovery, ASTs, import graph;
* :mod:`repro.analysis.rules`       — findings, registry, inline waivers,
  and the driver that indexes the functions once per run and runs each
  indexed family's pass once;
* :mod:`repro.analysis.determinism` — DET001–DET005 determinism lint;
* :mod:`repro.analysis.boundaries`  — BND001 trusted-boundary DAG checker;
* :mod:`repro.analysis.dataflow`    — the function index (the call
  graph every indexed pass shares);
* :mod:`repro.analysis.taint`       — SEC001–SEC003 key secrecy: the
  policy and the interprocedural taint engine (per-function summaries,
  fixpoint propagation) that checks it;
* :mod:`repro.analysis.hotpath`     — PERF001–PERF003 hot-path cost
  lint (interprocedural reachability from the kernel entry points);
* :mod:`repro.analysis.liveness`    — LIV005 liveness lint
  (completions pending with no expiry);
* :mod:`repro.analysis.report`      — text/JSON/SARIF rendering, TCB
  accounting.

Entry points: ``python -m repro lint`` (CLI), :func:`analyze_paths`
(programmatic), and the tier-1 tests ``tests/test_analysis.py`` and
``tests/test_tcb_boundaries.py``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from repro.analysis.boundaries import (
    BOUNDARY_MANIFEST,
    TRUSTED_PACKAGES,
    TrustedBoundaryRule,
    check_boundaries,
    is_trusted,
)
from repro.analysis.hotpath import (
    HOTPATH_RULES,
    HotAllocationRule,
    HotPathEngine,
    HotPathManifest,
    HotSlotsRule,
    UngatedEmitRule,
)
from repro.analysis.liveness import (
    LIVENESS_RULES,
    LivenessEngine,
    UnboundedNetworkWaitRule,
)
from repro.analysis.report import (
    TcbReport,
    render_json,
    render_sarif,
    render_text,
)
from repro.analysis.rules import (
    Finding,
    IndexedRule,
    ProjectRule,
    Rule,
    apply_suppressions,
    collect_findings,
    default_rules,
    rule_by_id,
    rule_catalog,
    run_rules,
)
from repro.analysis.taint import TaintEngine, TaintFlow
from repro.analysis.walker import (
    SourceFile,
    collect_sources,
    default_package_root,
    import_graph,
    parse_file,
)

__all__ = [
    "BOUNDARY_MANIFEST",
    "Finding",
    "HOTPATH_RULES",
    "HotAllocationRule",
    "HotPathEngine",
    "HotPathManifest",
    "HotSlotsRule",
    "IndexedRule",
    "LIVENESS_RULES",
    "LivenessEngine",
    "ProjectRule",
    "Rule",
    "SourceFile",
    "TRUSTED_PACKAGES",
    "TaintEngine",
    "TaintFlow",
    "TcbReport",
    "TrustedBoundaryRule",
    "UnboundedNetworkWaitRule",
    "UngatedEmitRule",
    "analyze_paths",
    "apply_suppressions",
    "check_boundaries",
    "collect_findings",
    "collect_sources",
    "default_package_root",
    "default_rules",
    "import_graph",
    "is_trusted",
    "parse_file",
    "render_json",
    "render_sarif",
    "render_text",
    "rule_by_id",
    "rule_catalog",
    "run_rules",
]


def analyze_paths(paths: Iterable[Path] | None = None) -> list[Finding]:
    """Run every pass over *paths* (default: the installed ``repro`` package)."""
    targets = [Path(p) for p in paths] if paths else [default_package_root()]
    return run_rules(collect_sources(targets))
