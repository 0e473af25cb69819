"""Golden-trace determinism: the kernel fast path is wall-clock-only.

The fixtures under ``tests/fixtures/golden/`` were generated with the
*pre-fast-path* simulator kernel (the seed of PR 4).  Each test re-runs
the same seeded scenario — one BFT round-trip batch and one
chain-replication workload — with the telemetry hub attached and
asserts the canonical dump of its trace ring is byte-identical to the
recorded golden.  The dump leaves out the hub's ``span.*`` records,
which the goldens predate.  A third golden holds every span and every
trace record of pipelined (depth-4) BFT runs, honest and with a faulty
leader.  Any change to
event ordering, same-timestamp tiebreaks, or virtual-time arithmetic
shows up here as a diff; optimisations that only shave wall-clock time
do not.

Regenerate (only when an *intentional* semantic change lands)::

    PYTHONPATH=src python tests/test_golden_trace.py --regenerate
"""

from __future__ import annotations

import pathlib

from repro.bench import kv_workload
from repro.systems.bft import BftCounter, ByzantineBehaviour
from repro.systems.chain import ChainReplication
from repro.telemetry import Telemetry, Tracer

GOLDEN_DIR = pathlib.Path(__file__).parent / "fixtures" / "golden"


def canonical_dump(trace: Tracer, final_now: float, committed: int) -> str:
    """Byte-stable rendering of a trace: exact float repr, sorted fields."""
    # The hub's default ring never evicts in these scenarios, so the
    # record count is the whole trace.
    assert trace.evicted == 0
    records = [r for r in trace.records() if not r.category.startswith("span.")]
    lines = [
        f"# records={len(records)} final_now={final_now!r} "
        f"committed={committed}"
    ]
    return "\n".join(lines + _record_lines(records)) + "\n"


def _record_lines(records) -> list[str]:
    lines = []
    for index, record in enumerate(records):
        fields = ",".join(
            f"{key}={value!r}" for key, value in sorted(record.fields.items())
        )
        lines.append(
            f"{index}|{record.time_us!r}|{record.category}|"
            f"{record.message}|{fields}"
        )
    return lines


def run_bft_round() -> str:
    system = BftCounter("tnic", f=1, batch=1, seed=3)
    hub = Telemetry.attach(system.sim)
    metrics = system.run_workload(3, pipeline_depth=1)
    assert not system.aborted
    return canonical_dump(hub.trace, system.sim.now, metrics.committed)


def run_chain_round() -> str:
    workload = kv_workload(6, read_fraction=0.3, value_bytes=60, seed=5)
    system = ChainReplication("tnic", chain_length=3, seed=5)
    hub = Telemetry.attach(system.sim)
    metrics = system.run_workload(workload)
    assert not system.aborted
    return canonical_dump(hub.trace, system.sim.now, metrics.committed)


def span_dump(hub, final_now: float, committed: int) -> str:
    """Every finished span (exact instants) and every trace record,
    ``span.*`` included."""
    assert hub.trace.evicted == 0 and hub.spans.evicted == 0
    lines = [f"# spans={len(hub.spans.finished)} "
             f"records={len(hub.trace.records())} "
             f"final_now={final_now!r} committed={committed}"]
    for span in hub.spans.finished:
        labels = ",".join(f"{key}={value!r}"
                          for key, value in sorted(span.labels.items()))
        lines.append(
            f"span|{span.span_id}|{span.trace_id}|{span.parent_id}|"
            f"{span.name}|{span.start_us!r}|{span.end_us!r}|{labels}"
        )
    return "\n".join(lines + _record_lines(hub.trace.records())) + "\n"


def run_bft_pipelined_spans() -> str:
    """Depth-4 traced BFT runs, honest and with a faulty leader: the
    only scenarios where a replica takes a queued message up the
    instant it finishes the previous one, or before it has arrived."""
    dumps = []
    for label, behaviours in (
        ("honest", {}),
        ("r0-equivocate", {"r0": ByzantineBehaviour(equivocate=True)}),
        ("r0-wrong-output", {"r0": ByzantineBehaviour(wrong_output=True)}),
    ):
        system = BftCounter("tnic", f=1, seed=3, behaviours=behaviours)
        hub = Telemetry.attach(system.sim)
        metrics = system.run_workload(8, pipeline_depth=4, timeout_us=5000)
        dumps.append(f"## {label} aborted={system.aborted}\n"
                     + span_dump(hub, system.sim.now, metrics.committed))
    return "".join(dumps)


SCENARIOS = {
    "golden_trace_bft.txt": run_bft_round,
    "golden_trace_chain.txt": run_chain_round,
    "golden_spans_bft_pipelined.txt": run_bft_pipelined_spans,
}


def _compare(filename: str) -> None:
    golden = (GOLDEN_DIR / filename).read_text()
    actual = SCENARIOS[filename]()
    assert actual == golden, (
        f"{filename}: trace diverged from the pre-fast-path golden — "
        "the kernel changed virtual-time semantics or event ordering"
    )


def test_bft_trace_matches_golden():
    _compare("golden_trace_bft.txt")


def test_chain_trace_matches_golden():
    _compare("golden_trace_chain.txt")


def test_pipelined_bft_spans_match_golden():
    _compare("golden_spans_bft_pipelined.txt")


def test_trace_is_run_to_run_deterministic():
    """Two in-process runs of one scenario must match exactly (no golden
    needed: guards against global mutable state — caches, counters —
    leaking into event order)."""
    assert run_chain_round() == run_chain_round()


if __name__ == "__main__":  # pragma: no cover - fixture regeneration
    import sys

    if "--regenerate" not in sys.argv:
        sys.exit("refusing to run without --regenerate")
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, scenario in SCENARIOS.items():
        (GOLDEN_DIR / name).write_text(scenario())
        print(f"wrote {GOLDEN_DIR / name}")
