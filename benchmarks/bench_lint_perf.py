"""Benchmark — static-analysis wall-clock over the full tree.

The lint gate runs on every check.sh invocation and in CI, so its
latency is part of the developer loop; the acceptance budget is a full
``python -m repro lint`` pass over ``src/`` in under 10 seconds.  The
interprocedural taint engine dominates (project fixpoint + a final
recording pass over every function), so its share is reported
separately alongside the fixpoint pass count; the per-generator
interference pass (RACE001–RACE003), the hot-path pass (PERF001–006,
reachability closure plus the per-function walk) and the liveness pass
(LIV lifecycle scans) are timed too, to keep their cost honest as the
tree grows.
"""

import time

from conftest import register_artefact

from repro.analysis import (
    HOTPATH_RULES,
    INTERFERENCE_RULES,
    LIVENESS_RULES,
    TNIC_MANIFEST,
    TaintEngine,
    analyze_paths,
    collect_findings,
    collect_sources,
    default_package_root,
    hotpath_engine,
)
from repro.bench.report import Table

LINT_BUDGET_S = 10.0


def test_lint_latency_within_budget(benchmark):
    sources = collect_sources([default_package_root()])

    start = time.perf_counter()
    engine = TaintEngine(sources, TNIC_MANIFEST)
    flows = engine.run()
    taint_s = time.perf_counter() - start

    start = time.perf_counter()
    collect_findings(sources, [cls() for cls in INTERFERENCE_RULES])
    interference_s = time.perf_counter() - start

    # Cold hot-path engine (reachability closure + per-function walk)
    # plus all six PERF rules reading its cached findings.
    start = time.perf_counter()
    collect_findings(sources, [cls() for cls in HOTPATH_RULES])
    hotpath_s = time.perf_counter() - start
    hot_set = len(hotpath_engine(sources).hot_functions)

    # Cold liveness engine (per-generator lifecycle scans, trigger-param
    # fixpoint) plus the LIV rules reading its cached hits.
    start = time.perf_counter()
    collect_findings(sources, [cls() for cls in LIVENESS_RULES])
    liveness_s = time.perf_counter() - start

    start = time.perf_counter()
    findings = analyze_paths()
    full_s = time.perf_counter() - start

    benchmark.pedantic(analyze_paths, rounds=3, iterations=1)

    assert findings == [], [f.render() for f in findings]
    assert full_s < LINT_BUDGET_S, f"lint took {full_s:.1f}s"

    table = Table(
        "Static-analysis latency (full tree)",
        ["stage", "value"],
    )
    table.add_row("modules analysed", str(len(sources)))
    table.add_row("functions indexed", str(len(engine.functions)))
    table.add_row("fixpoint passes", str(engine.passes_run))
    table.add_row("raw taint flows", str(len(flows)))
    table.add_row("taint engine (s)", f"{taint_s:.2f}")
    table.add_row("interference pass (s)", f"{interference_s:.2f}")
    table.add_row("hot functions", str(hot_set))
    table.add_row("hotpath pass (s)", f"{hotpath_s:.2f}")
    table.add_row("liveness pass (s)", f"{liveness_s:.2f}")
    table.add_row("full lint (s)", f"{full_s:.2f}")
    table.add_row("budget (s)", f"{LINT_BUDGET_S:.1f}")
    register_artefact("Lint latency", table.render())
