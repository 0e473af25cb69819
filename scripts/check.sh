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
echo "== schedule-perturbation harness (python -m repro sanitize) =="
# Compare, don't overwrite: the committed report is the contract.
python -m repro sanitize --seeds 8 --output /tmp/tnic-sanitize.json
cmp /tmp/tnic-sanitize.json benchmarks/results/sanitize_report.json
rm -f /tmp/tnic-sanitize.json
echo "ok: sanitize report byte-identical to the committed one"

echo
echo "== virtual-time artifacts (committed BENCH_fig*/tab* must reproduce) =="
# Every figure/table artifact is a pure function of the source tree;
# BENCH_tab04 (the LoC table) moves with any source edit and is
# regenerated by this same command.
python benchmarks/run_all.py --figures > /dev/null
git diff --exit-code -- 'benchmarks/results/BENCH_fig*.json' \
    'benchmarks/results/BENCH_tab*.json'
echo "ok: run_all.py --figures reproduces the committed artifacts"

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
# The absolute throughput floor (REGRESSION_FLOOR_EVENTS_PER_S in
# benchmarks/run_all.py) is enforced by the CI perf-smoke job via
# `run_all.py --check-regression`; this local smoke asserts only the
# weaker any-host sanity bound in bench_sim_kernel.
python -m pytest -q benchmarks/bench_fig06_attest_breakdown.py \
    benchmarks/bench_sim_kernel.py

echo
echo "== end-to-end benchmark smoke (oracles of all seven workloads) =="
python -m pytest benchmarks/e2e/test_smoke.py -q

echo
echo "all checks passed"
