#!/usr/bin/env bash
# One-stop pre-merge gate: tier-1 tests, static analysis, bench smoke.
#
# Usage: scripts/check.sh
# Run from anywhere; it cd's to the repo root.

set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH=src

echo "== tier-1 test suite =="
python -m pytest -q

echo
echo "== static analysis (python -m repro lint) =="
mkdir -p benchmarks/results
python -m repro lint --sarif benchmarks/results/lint.sarif

echo
echo "== stale baseline waivers =="
python -m repro lint --prune-baseline --dry-run

echo
echo "== partition manifest (shard-safety regression gate) =="
# Capture the committed verdicts before the CLI rewrites the file, then
# fail if any previously shardable system regressed to blocked.
committed_manifest=$(cat benchmarks/results/partition_manifest.json \
    2>/dev/null || echo '{"systems": {}}')
python -m repro lint \
    --partition-manifest benchmarks/results/partition_manifest.json
COMMITTED_MANIFEST="$committed_manifest" python - <<'PY'
import json
import os
import sys

committed = json.loads(os.environ["COMMITTED_MANIFEST"])
with open("benchmarks/results/partition_manifest.json") as handle:
    fresh = json.load(handle)
regressed = sorted(
    name
    for name, system in committed.get("systems", {}).items()
    if system.get("shardable")
    and not fresh["systems"].get(name, {}).get("shardable", False)
)
if regressed:
    sys.exit(
        "shard-safety regression: previously shardable systems now "
        "blocked: " + ", ".join(regressed)
    )
shardable = sum(1 for s in fresh["systems"].values() if s["shardable"])
print(f"ok: no shardable system regressed ({shardable} shardable)")
PY

echo
echo "== hotpath manifest (hot-path cost regression gate) =="
# Counts are pre-waiver: an inline `# lint: ignore[PERF00x]` silences
# the finding but the site still counts, so growth fails here even when
# each new site is individually blessed.
committed_hotpath=$(cat benchmarks/results/hotpath_manifest.json \
    2>/dev/null || echo '{"totals": {}, "functions": {}}')
python -m repro lint \
    --hotpath-manifest benchmarks/results/hotpath_manifest.json
COMMITTED_HOTPATH="$committed_hotpath" python - <<'PY'
import json
import os
import sys

committed = json.loads(os.environ["COMMITTED_HOTPATH"])
with open("benchmarks/results/hotpath_manifest.json") as handle:
    fresh = json.load(handle)
problems = []
for metric in ("allocation_sites", "ungated_emits"):
    before = committed.get("totals", {}).get(metric)
    after = fresh["totals"][metric]
    if before is not None and after > before:
        problems.append(f"{metric} grew {before} -> {after}")
        was = committed.get("functions", {})
        for qualname, stats in sorted(fresh["functions"].items()):
            now = (
                stats["allocation_sites"]
                if metric == "allocation_sites"
                else stats["emit_sites"]["ungated"]
            )
            old_stats = was.get(qualname, {})
            old = (
                old_stats.get("allocation_sites", 0)
                if metric == "allocation_sites"
                else old_stats.get("emit_sites", {}).get("ungated", 0)
            )
            if now > old:
                problems.append(f"  {qualname}: {old} -> {now}")
if problems:
    sys.exit("hot-path cost regression:\n" + "\n".join(problems))
totals = fresh["totals"]
print(
    "ok: hot path holds at "
    f"{totals['allocation_sites']} allocation site(s), "
    f"{totals['ungated_emits']} ungated emit(s) across "
    f"{totals['functions']} function(s)"
)
PY

echo
echo "== wait graph (liveness regression gate) =="
# Leak counts are pre-waiver: an inline `# lint: ignore[LIV001]` keeps
# `python -m repro lint` green but the site still appears here, so a
# new leak fails even when individually blessed.  Deadlock verdicts
# have no waiver path at all — any new cycle fails outright.
committed_waitgraph=$(cat benchmarks/results/wait_graph.json \
    2>/dev/null || echo '{"systems": {}, "totals": {}}')
python -m repro lint --wait-graph benchmarks/results/wait_graph.json
COMMITTED_WAITGRAPH="$committed_waitgraph" python - <<'PY'
import json
import os
import sys

committed = json.loads(os.environ["COMMITTED_WAITGRAPH"])
with open("benchmarks/results/wait_graph.json") as handle:
    fresh = json.load(handle)
problems = []
for name, system in sorted(fresh["systems"].items()):
    was_free = committed.get("systems", {}).get(name, {}).get(
        "deadlock_free", True
    )
    if was_free and not system["deadlock_free"]:
        problems.append(f"{name}: new deadlock cycle(s)")
        for cycle in system["cycles"]:
            ring = " -> ".join(cycle["resources"])
            problems.append(f"  cycle: {ring}")
before_leaks = committed.get("totals", {}).get("leak_sites")
after_leaks = fresh["totals"]["leak_sites"]
if before_leaks is not None and after_leaks > before_leaks:
    problems.append(f"leak sites grew {before_leaks} -> {after_leaks}")
    was = {
        (leak["module"], leak["line"])
        for leak in committed.get("leaks", [])
    }
    for leak in fresh["leaks"]:
        if (leak["module"], leak["line"]) not in was:
            problems.append(
                f"  {leak['module']}:{leak['line']}: {leak['message']}"
            )
if problems:
    sys.exit("liveness regression:\n" + "\n".join(problems))
totals = fresh["totals"]
print(
    "ok: wait graph holds at "
    f"{totals['cycles']} cycle(s), {totals['leak_sites']} leak site(s) "
    f"across {totals['systems']} system(s)"
)
PY

echo
echo "== schedule-perturbation harness (python -m repro sanitize) =="
python -m repro sanitize --seeds 8 \
    --output benchmarks/results/sanitize_report.json

echo
echo "== telemetry determinism (two seeded runs must match) =="
python -m repro metrics --json > /tmp/tnic-metrics-a.json
python -m repro metrics --json > /tmp/tnic-metrics-b.json
cmp /tmp/tnic-metrics-a.json /tmp/tnic-metrics-b.json
rm -f /tmp/tnic-metrics-a.json /tmp/tnic-metrics-b.json
echo "ok: metrics documents byte-identical"

echo
echo "== trace determinism (two seeded BFT critical-path runs must match) =="
python -m repro trace --scenario bft --ops 4 --seed 3 --critical-path \
    --output /tmp/tnic-trace-a.json > /dev/null
python -m repro trace --scenario bft --ops 4 --seed 3 --critical-path \
    --output /tmp/tnic-trace-b.json > /dev/null
cmp /tmp/tnic-trace-a.json /tmp/tnic-trace-b.json
rm -f /tmp/tnic-trace-a.json /tmp/tnic-trace-b.json
echo "ok: critical-path analyses byte-identical"

echo
echo "== benchmark smoke (Fig. 6 breakdown + sim kernel) =="
# The absolute throughput floor (REGRESSION_FLOOR_EVENTS_PER_S =
# 525,000 events/s, benchmarks/run_all.py) is enforced by the CI
# perf-smoke job via `run_all.py --check-regression`; this local smoke
# asserts only the weaker any-host sanity bound in bench_sim_kernel.
python -m pytest -q benchmarks/bench_fig06_attest_breakdown.py \
    benchmarks/bench_sim_kernel.py

echo
echo "== end-to-end benchmark smoke (oracles of all seven workloads) =="
python -m pytest benchmarks/e2e/test_smoke.py -q

echo
echo "all checks passed"
