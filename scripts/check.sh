#!/usr/bin/env bash
# One-stop pre-merge gate: tier-1 tests, static analysis, bench smoke.
#
# Usage: scripts/check.sh
# Run from anywhere; it cd's to the repo root.

set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH=src

echo "== tier-1 test suite (fresh Hypothesis draws) =="
# Plain pytest draws derandomized examples (tests/conftest.py); the
# gate draws new ones, so a new counterexample still fails it.
python -m pytest -q --hypothesis-profile=fresh

echo
echo "== static analysis (python -m repro lint) =="
python -m repro lint

echo
echo "== examples (each must exit 0) =="
# The only non-test callers of recv, RpcEndpoint and BftTransform.
for example in examples/*.py; do
    python "$example" > /dev/null || { echo "FAILED: $example"; exit 1; }
done
echo "ok: every example ran"

echo
echo "== schedule-perturbation harness (python -m repro sanitize) =="
# Compare, don't overwrite: the committed report is the contract.
python -m repro sanitize --seeds 8 --output /tmp/tnic-sanitize.json
cmp /tmp/tnic-sanitize.json benchmarks/results/sanitize_report.json
rm -f /tmp/tnic-sanitize.json
echo "ok: sanitize report byte-identical to the committed one"

echo
echo "== virtual-time artifacts (committed BENCH_fig*/tab* must reproduce) =="
# Every figure/table artifact is a function of the model's virtual
# time, not of the source text: an edit that moves no virtual number
# regenerates nothing.
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
echo "== trace determinism (two seeded runs of each must match) =="
python -m repro trace --scenario bft --ops 4 --seed 3 --critical-path \
    --output /tmp/tnic-trace-a.json > /dev/null
python -m repro trace --scenario bft --ops 4 --seed 3 --critical-path \
    --output /tmp/tnic-trace-b.json > /dev/null
cmp /tmp/tnic-trace-a.json /tmp/tnic-trace-b.json
rm -f /tmp/tnic-trace-a.json /tmp/tnic-trace-b.json
echo "ok: critical-path analyses byte-identical"
# The tamper run fills the trace ring through the rejection path that
# triggers the flight recorder.
python -m repro trace --tamper --seed 0 > /tmp/tnic-ring-a.txt
python -m repro trace --tamper --seed 0 > /tmp/tnic-ring-b.txt
cmp /tmp/tnic-ring-a.txt /tmp/tnic-ring-b.txt
rm -f /tmp/tnic-ring-a.txt /tmp/tnic-ring-b.txt
echo "ok: tamper-run trace rings byte-identical"

echo
echo "== benchmark smoke (Fig. 6 breakdown + sim kernel + lint latency) =="
# The absolute throughput floor (REGRESSION_FLOOR_EVENTS_PER_S in
# benchmarks/run_all.py) is enforced by the CI perf-smoke job via
# `run_all.py --check-regression`; this local smoke asserts only the
# weaker any-host sanity bound in bench_sim_kernel, and the 10 s budget
# of one cold full lint run in bench_lint_perf.
python -m pytest -q benchmarks/bench_fig06_attest_breakdown.py \
    benchmarks/bench_sim_kernel.py benchmarks/bench_lint_perf.py

echo
echo "== end-to-end benchmark smoke (oracles of all seven workloads) =="
python -m pytest benchmarks/e2e/test_smoke.py -q

echo
echo "all checks passed"
