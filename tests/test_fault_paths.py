"""Every fault path of the BFT counter, the chain and the view change,
pinned to the values the protocol code gave before its replica loops
were merged (one ``run`` per replica).

The golden traces cover honest runs only.  Here each Byzantine
behaviour runs to its abort, and the test pins what a change to the
receive path could move: the metrics, ``aborted``, every detected fault,
the final virtual instant, and (BFT) the quorum read that follows or
(view change) each replica's view.  ``fixtures/fault_paths.json`` holds
the values; a difference is a behaviour change to explain, not a number
to accept.
"""

import json
from pathlib import Path

import pytest

from repro.bench.workload import kv_workload
from repro.systems.bft import BftCounter, ByzantineBehaviour
from repro.systems.bft_viewchange import ViewChangeBftCounter
from repro.systems.chain import ChainBehaviour, ChainReplication

PINNED = json.loads(
    (Path(__file__).parent / "fixtures" / "fault_paths.json").read_text()
)


def _bft(fault, depth):
    behaviours = {"r0": ByzantineBehaviour(**{fault: True})} if fault else None
    system = BftCounter(seed=3, behaviours=behaviours)
    metrics = system.run_workload(6, timeout_us=20_000.0, pipeline_depth=depth)
    try:
        read = system.read_counter()
    except TimeoutError:
        read = "TimeoutError"
    return dict(metrics=metrics.to_dict(), aborted=system.aborted,
                faults=system.detected_faults(), read=read, now=system.sim.now)


def _chain(node, fault, mode):
    behaviours = {node: ChainBehaviour(**{fault: True})} if fault else None
    system = ChainReplication(seed=2, behaviours=behaviours)
    metrics = system.run_workload(kv_workload(20, seed=2),
                                  timeout_us=20_000.0, read_mode=mode)
    return dict(metrics=metrics.to_dict(), aborted=system.aborted,
                faults=system.detected_faults(), now=system.sim.now)


def _view_change(silent, provider="tnic", watchdog_us=400.0):
    system = ViewChangeBftCounter(provider, seed=1, silent_replicas=silent,
                                  watchdog_us=watchdog_us)
    metrics = system.run_workload(5)
    return dict(metrics=metrics.to_dict(), aborted=system.aborted,
                views=system.current_views(), now=system.sim.now)


CASES = {
    **{
        f"bft-{fault}-{depth}": (_bft, fault, depth)
        for fault in (None, "equivocate", "wrong_output", "replay")
        for depth in (1, 4)
    },
    **{
        f"chain-{node}-{fault}-{mode}": (_chain, node, fault, mode)
        for node, fault in ((None, None), ("head", "corrupt_output"),
                            ("mid0", "corrupt_output"),
                            ("head", "drop_forward"))
        for mode in ("chain", "quorum")
    },
    "vc-none": (_view_change, None),
    "vc-r0": (_view_change, {"r0"}),
    # A watchdog that races PoEs in flight: it must join the replica's
    # queue in the order it would arrive, one hop after its send.
    "vc-sgx-r0-60": (_view_change, {"r0"}, "sgx", 60.0),
    "vc-sgx-none-45": (_view_change, None, "sgx", 45.0),
}


def test_every_case_is_pinned():
    assert set(CASES) == set(PINNED)


@pytest.mark.parametrize("case", sorted(CASES))
def test_fault_path_is_pinned(case):
    run, *args = CASES[case]
    # JSON round trip: the fixture's floats are repr-exact, its keys text.
    assert json.loads(json.dumps(run(*args))) == PINNED[case]
