"""Benchmark — static-analysis wall-clock over the full tree.

The lint gate runs on every check.sh invocation and in CI, so its
latency is part of the developer loop; the acceptance budget is a full
``python -m repro lint`` pass over ``src/`` in under 10 seconds.

A lint run keeps nothing between runs: every ``collect_findings`` builds
the function index once and runs each indexed family's pass (taint
flows, hot path, liveness) once with it, so every run is cold.  The
table splits one such run by pass — the index, the three indexed
families and every other family (the per-file determinism rules and
the boundary check) — and the budget is asserted on the full run,
source parsing included.
"""

import time

from conftest import register_artefact

from repro.analysis import (
    IndexedRule,
    ProjectRule,
    analyze_paths,
    collect_findings,
    collect_sources,
    default_package_root,
    default_rules,
    rules,
)
from repro.bench.report import Table

LINT_BUDGET_S = 10.0


def _timed(seconds: dict[str, float], label: str, run):
    """*run*, adding its wall-clock time to ``seconds[label]``."""
    def wrapper(*args):
        start = time.perf_counter()
        out = list(run(*args))
        seconds[label] = seconds.get(label, 0.0) + time.perf_counter() - start
        return out
    return wrapper


def _family(rule_id: str) -> str:
    return rule_id.rstrip("0123456789")


def test_lint_latency_within_budget(benchmark, monkeypatch):
    sources = collect_sources([default_package_root()])

    # One cold collect_findings, each pass timed where the driver calls it.
    seconds: dict[str, float] = {}
    monkeypatch.setattr(rules, "index_functions", _timed(
        seconds, "function index", rules.index_functions))
    passes = {}
    selected = default_rules()
    for rule in selected:
        if isinstance(rule, IndexedRule):
            run = rule.family_pass
            if run not in passes:
                passes[run] = _timed(seconds, f"{run.__name__} pass", run)
            rule.family_pass = passes[run]
        elif isinstance(rule, ProjectRule):
            rule.check_project = _timed(
                seconds, f"{_family(rule.rule_id)} rules", rule.check_project)
        else:
            rule.check = _timed(
                seconds, f"{_family(rule.rule_id)} rules", rule.check)
    start = time.perf_counter()
    raw = collect_findings(sources, selected)
    passes_s = time.perf_counter() - start
    monkeypatch.undo()

    start = time.perf_counter()
    findings = benchmark.pedantic(analyze_paths, rounds=1, iterations=1)
    full_s = time.perf_counter() - start

    assert findings == [], [f.render() for f in findings]
    assert full_s < LINT_BUDGET_S, f"lint took {full_s:.1f}s"

    table = Table(
        "Static-analysis latency (full tree, one cold run)",
        ["stage", "value"],
    )
    table.add_row("modules analysed", str(len(sources)))
    table.add_row("raw findings", str(len(raw)))
    for label in sorted(seconds):
        table.add_row(f"{label} (s)", f"{seconds[label]:.2f}")
    table.add_row("all passes (s)", f"{passes_s:.2f}")
    table.add_row("full lint, parsing included (s)", f"{full_s:.2f}")
    table.add_row("budget (s)", f"{LINT_BUDGET_S:.1f}")
    register_artefact("Lint latency", table.render())
