"""Smoke test of the end-to-end benchmark.

Not part of tier-1 (``testpaths = ["tests"]``); run it explicitly::

    python -m pytest benchmarks/e2e/test_smoke.py -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]


def test_spec_lists_the_workloads_the_code_defines():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    assert [(w.name, w.why) for w in workloads.WORKLOADS] == [
        (entry["name"], entry["why"]) for entry in SPEC["workloads"]
    ]


def test_small_scale_suite_prints_every_metric_and_passes_every_oracle():
    results_before = (HERE / "RESULTS.json").read_bytes()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", "0",
         "--scale", "0.05", "--seconds", "0.5"],
        capture_output=True, text=True, cwd=ROOT, timeout=900,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    assert "ORACLE VIOLATED" not in done.stdout
    assert "suite passed" in done.stdout
    printed: dict[tuple[str, str], float] = {}
    for line in done.stdout.splitlines():
        fields = line.split()
        if len(fields) >= 4 and fields[0] in WORKLOADS:
            printed[(fields[0], fields[1])] = float(fields[3])
    metrics = [entry["name"] for entry in SPEC["end_to_end"] + SPEC["per_layer"]]
    for workload in WORKLOADS:
        for metric in metrics + ["failed_ops_share"]:
            assert math.isfinite(printed[(workload, metric)]), (workload, metric)
        assert printed[(workload, "failed_ops_share")] == 0.0
    # Results at another scale are printed, never written.
    assert (HERE / "RESULTS.json").read_bytes() == results_before


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", WORKLOADS[0],
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
