"""Shared infrastructure for the per-figure benchmark harness.

Each bench regenerates one table or figure of the paper's evaluation
(§8) from the simulation, asserts the paper's qualitative shape, and
registers the rendered rows/series.  A terminal-summary hook prints
every registered artefact at the end of the run, so
``pytest benchmarks/ --benchmark-only`` leaves the reproduced tables in
its output (and in bench_output.txt when tee'd).

Nothing is written to disk here: the committed rendering of a figure is
its ``BENCH_<name>.json`` (``run_all.py --figures``), the one file per
figure that ``scripts/check.sh`` compares.
"""

from __future__ import annotations

_ARTEFACTS: list[tuple[str, str]] = []


def register_artefact(name: str, text: str) -> None:
    """Record a rendered table/figure for the end-of-run summary."""
    _ARTEFACTS.append((name, text))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ARTEFACTS:
        return
    terminalreporter.write_sep("=", "reproduced tables and figures")
    for name, text in _ARTEFACTS:
        terminalreporter.write_line("")
        terminalreporter.write_line(f"### {name}")
        for line in text.splitlines():
            terminalreporter.write_line(line)
    terminalreporter.write_line("")
