#!/usr/bin/env python
"""Standalone kernel-performance runner (no pytest required).

Measures the canonical simulator-kernel workloads plus the HMAC
verification-cache effectiveness on the Figure 11 chain-replication
round, and writes ``benchmarks/results/BENCH_sim_kernel.json``.

Usage::

    PYTHONPATH=src python benchmarks/run_all.py
    PYTHONPATH=src python benchmarks/run_all.py --check-regression
    PYTHONPATH=src python benchmarks/run_all.py --figures fig06 fig10
    PYTHONPATH=src python benchmarks/run_all.py --compare OLD.json NEW.json

``--check-regression`` exits non-zero when the timeout-storm rate falls
below :data:`REGRESSION_FLOOR_EVENTS_PER_S` (the rule and the runs it
came from are written beside the constant).  CI runs this as the
perf-smoke job.

``--figures`` runs each named figure/table's ``measure()`` (no names:
every registered one) and writes a canonical
``benchmarks/results/BENCH_<name>.json`` per figure — virtual-time
results only, so two runs of one seed are byte-identical and the
artifacts are diffable across PRs with ``--compare``.

``--compare OLD NEW`` diffs two such artifacts leaf by leaf and exits
non-zero on a regression: a throughput-like number that *dropped*, or
a latency-like number that *rose*, by more than ``--threshold``
(default 10%).
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import pathlib
import sys
from typing import Any, Iterator

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from kernel_measure import measure_all  # noqa: E402

from repro.bench import kv_workload  # noqa: E402
from repro.bench.kernel_workloads import DEFAULT_EVENTS  # noqa: E402
from repro.crypto import (
    reset_verification_cache,
    reset_verification_cache_counters,
    verification_cache_stats,
)
from repro.systems.chain import ChainReplication

#: Timeout-storm floor for the CI perf smoke.  ``timeout_storm`` holds
#: 20,000 timers pending, a depth no paper workload comes near (they
#: stay under 30, docs/performance.md), so it times the binary heap at
#: its most expensive, not at its usual.  Rule: 25 % under the slowest
#: of >= 10 ``measure_all(rounds=5)`` runs.  PR 18, 12 fresh-process
#: runs: 441,079-534,369 events/s (median 476,470) on Intel Xeon @
#: 2.10 GHz, 2 cores, CPython 3.11.7, Linux 6.18.44 -> 330,000.  (The
#: calendar queue read 789k-883k in the same session; the seed's kernel
#: 364,852 on its own host.)  This is the only place the value is
#: written; scripts, CI and docs refer to the constant by name.
REGRESSION_FLOOR_EVENTS_PER_S = 330_000

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
RESULTS_PATH = RESULTS_DIR / "BENCH_sim_kernel.json"

#: Figure/table name -> benchmark module exposing ``measure()``.
#: Each entry becomes one canonical ``BENCH_<name>.json`` artifact.
FIGURES = {
    "fig05": "bench_fig05_attest_latency",
    "fig06": "bench_fig06_attest_breakdown",
    "fig08": "bench_fig08_send_throughput",
    "fig09": "bench_fig09_send_latency",
    "fig10": "bench_fig10_bft",
    "fig11": "bench_fig11_chain_replication",
    "fig12": "bench_fig12_peer_review",
    "fig13": "bench_fig13_scalability",
    "tab02": "bench_tab02_baseline_properties",
    "tab03": "bench_tab03_a2m",
    "tab04": "bench_tab04_tcb_size",
    "tab05": "bench_tab05_fpga_resources",
}


def _jsonable(value: Any) -> Any:
    """Recursively coerce a ``measure()`` result into plain JSON.

    The benchmark modules return whatever is natural for their assert
    logic — dataclasses (``attest_breakdown``), metric objects, nested
    dicts keyed by ints/enums.  Floats are rounded so the artifact is
    byte-stable across platforms' repr differences.
    """
    if isinstance(value, bool) or value is None or isinstance(value, (str, int)):
        return value
    if isinstance(value, float):
        return round(value, 6)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value) if isinstance(value, (set, frozenset)) else value
        return [_jsonable(v) for v in items]
    if hasattr(value, "to_dict"):
        # Objects exporting a canonical view (e.g. SystemMetrics, which
        # keeps a simulator handle that must never enter an artifact).
        return _jsonable(value.to_dict())
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if hasattr(value, "_asdict"):  # namedtuple
        return _jsonable(value._asdict())
    if hasattr(value, "__dict__"):
        return {
            k: _jsonable(v)
            for k, v in sorted(vars(value).items())
            if not k.startswith("_")
        }
    return str(value)


def run_figures(names: list[str]) -> list[pathlib.Path]:
    """Run each figure's ``measure()`` and write its BENCH artifact."""
    unknown = [n for n in names if n not in FIGURES]
    if unknown:
        raise SystemExit(
            f"unknown figures: {unknown}; known: {sorted(FIGURES)}"
        )
    RESULTS_DIR.mkdir(exist_ok=True)
    written: list[pathlib.Path] = []
    for name in names or sorted(FIGURES):
        module = importlib.import_module(FIGURES[name])
        document = {
            "figure": name,
            "module": FIGURES[name],
            "data": _jsonable(module.measure()),
        }
        path = RESULTS_DIR / f"BENCH_{name}.json"
        path.write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n"
        )
        written.append(path)
        print(f"wrote {path}")
    return written


# ---------------------------------------------------------------------------
# Artifact comparison (`--compare OLD NEW`)
# ---------------------------------------------------------------------------

#: Leaf-name fragments that mark a number as higher-is-better /
#: lower-is-better.  Checked in order; first match wins.
_HIGHER_BETTER = ("per_second", "throughput", "ops", "hit_rate", "hits")
_LOWER_BETTER = ("_us", "_ns", "latency", "duration", "misses", "evicted")


def _direction(path: str) -> str:
    leaf = path.rsplit(".", 1)[-1].lower()
    for fragment in _HIGHER_BETTER:
        if fragment in leaf:
            return "higher"
    for fragment in _LOWER_BETTER:
        if fragment in leaf:
            return "lower"
    return "neutral"


def _numeric_leaves(doc: Any, prefix: str = "") -> Iterator[tuple[str, float]]:
    if isinstance(doc, dict):
        for key in sorted(doc):
            yield from _numeric_leaves(doc[key], f"{prefix}{key}.")
    elif isinstance(doc, (list, tuple)):
        for index, item in enumerate(doc):
            yield from _numeric_leaves(item, f"{prefix}{index}.")
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        yield prefix[:-1], float(doc)


def compare(old: Any, new: Any, threshold: float = 0.10) -> list[dict]:
    """Diff two BENCH artifacts; findings for every leaf that moved by
    more than *threshold* (relative), flagging direction-aware
    regressions (throughput down / latency up)."""
    old_leaves = dict(_numeric_leaves(old))
    new_leaves = dict(_numeric_leaves(new))
    findings: list[dict] = []
    for path in sorted(old_leaves.keys() & new_leaves.keys()):
        before, after = old_leaves[path], new_leaves[path]
        if before == after:
            continue
        base = abs(before) if before else abs(after)
        change = (after - before) / base
        if abs(change) <= threshold:
            continue
        direction = _direction(path)
        regression = (direction == "higher" and change < 0) or (
            direction == "lower" and change > 0
        )
        findings.append({
            "path": path,
            "old": before,
            "new": after,
            "change": round(change, 4),
            "direction": direction,
            "regression": regression,
        })
    for path in sorted(old_leaves.keys() - new_leaves.keys()):
        findings.append({
            "path": path, "old": old_leaves[path], "new": None,
            "change": None, "direction": _direction(path),
            "regression": True,
        })
    return findings


def _cmd_compare(old_path: str, new_path: str, threshold: float) -> int:
    old = json.loads(pathlib.Path(old_path).read_text())
    new = json.loads(pathlib.Path(new_path).read_text())
    findings = compare(old, new, threshold)
    regressions = [f for f in findings if f["regression"]]
    for finding in findings:
        flag = "REGRESSION" if finding["regression"] else "changed"
        if finding["new"] is None:
            print(f"{flag:10s} {finding['path']}: "
                  f"{finding['old']:g} -> (missing)")
        else:
            print(f"{flag:10s} {finding['path']}: "
                  f"{finding['old']:g} -> {finding['new']:g} "
                  f"({finding['change']:+.1%})")
    print(
        f"compare: {len(findings)} change(s) beyond {threshold:.0%}, "
        f"{len(regressions)} regression(s)"
    )
    return 1 if regressions else 0


def measure_hmac_cache() -> dict:
    """Steady-state verification-cache hit rate over chain replication.

    Chain replication forwards the head's attested proof down the chain,
    so every non-adjacent node re-verifies the same (message, α) pair —
    the transferable-authentication pattern the cache exists for.

    A warmup round runs first and only its *counters* are discarded
    (entries survive): the reported hit rate is the steady state, not
    diluted by session-setup and first-touch misses the way the
    pre-ISSUE-9 number was.
    """
    reset_verification_cache()
    system = ChainReplication("tnic", chain_length=3, seed=5)
    system.run_workload(kv_workload(10, read_fraction=0.3, value_bytes=60,
                                    seed=4))
    reset_verification_cache_counters()
    system.run_workload(kv_workload(10, read_fraction=0.3, value_bytes=60,
                                    seed=5))
    stats = verification_cache_stats()
    reset_verification_cache()
    return stats


def run(rounds: int = 5) -> dict:
    rates = measure_all(DEFAULT_EVENTS, rounds=rounds)
    return {
        "events_per_run": DEFAULT_EVENTS,
        "rounds": rounds,
        "events_per_second": {k: round(v) for k, v in rates.items()},
        "hmac_verification_cache": measure_hmac_cache(),
        "regression_floor_events_per_second": REGRESSION_FLOOR_EVENTS_PER_S,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check-regression", action="store_true",
        help="exit 1 if timeout_storm falls below the regression floor",
    )
    parser.add_argument(
        "--rounds", type=int, default=5,
        help="measurement rounds per workload (best-of; default 5)",
    )
    parser.add_argument(
        "--figures", nargs="*", metavar="NAME", default=None,
        help="run figure/table measure()s and write one "
             "BENCH_<name>.json each (no names: all registered); "
             "skips the kernel measurement",
    )
    parser.add_argument(
        "--compare", nargs=2, metavar=("OLD", "NEW"), default=None,
        help="diff two BENCH artifacts; exit 1 on a >threshold "
             "regression (throughput down / latency up)",
    )
    parser.add_argument(
        "--threshold", type=float, default=0.10,
        help="relative-change threshold for --compare (default 0.10)",
    )
    args = parser.parse_args(argv)

    if args.compare is not None:
        return _cmd_compare(args.compare[0], args.compare[1], args.threshold)
    if args.figures is not None:
        run_figures(args.figures)
        return 0

    report = run(rounds=args.rounds)

    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    )

    print(f"simulator kernel ({report['events_per_run']:,} events, "
          f"best of {report['rounds']})")
    for name, rate in report["events_per_second"].items():
        print(f"  {name:22s} {rate:>12,} events/s")
    cache = report["hmac_verification_cache"]
    print(f"  hmac verify cache      hits={cache['hits']} "
          f"misses={cache['misses']} hit_rate={cache['hit_rate']:.2%}")
    print(f"wrote {RESULTS_PATH}")

    if args.check_regression:
        storm = report["events_per_second"]["timeout_storm"]
        if storm < REGRESSION_FLOOR_EVENTS_PER_S:
            print(
                f"PERF REGRESSION: timeout_storm {storm:,} events/s is "
                f"below the regression floor "
                f"{REGRESSION_FLOOR_EVENTS_PER_S:,}",
                file=sys.stderr,
            )
            return 1
        print(f"perf smoke OK: timeout_storm {storm:,} >= floor "
              f"{REGRESSION_FLOOR_EVENTS_PER_S:,}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
