"""The schedule-perturbation harness behind ``repro sanitize``.

It is the one check of schedule independence.  The same seed must
reproduce the same schedule byte-for-byte, the default FIFO tie-break
must be untouched (the golden traces depend on it), the tier-1
scenarios must be digest-stable across eight perturbed schedules, and
a scenario whose outcome does depend on the tie order must be caught.
"""

from __future__ import annotations

import pytest

from repro.sanitizer import derive_seed, run_sanitize
from repro.sanitizer.perturb import SCENARIOS
from repro.sim import Simulator


# ----------------------------------------------------------------------
# Perturbation: seeded, reproducible, FIFO by default
# ----------------------------------------------------------------------

def _completion_order(seed: int | None) -> str:
    sim = Simulator()
    order: list[str] = []

    def waiter(name: str):
        yield sim.timeout(10)
        order.append(name)

    for name in "abcdef":
        sim.process(waiter(name))
    if seed is not None:
        sim.perturb_ties(seed)
    sim.run()
    return "".join(order)


def test_default_tiebreak_is_exact_fifo():
    assert _completion_order(None) == "abcdef"


def test_perturbation_shuffles_ties_reproducibly():
    # Constant pinned on purpose: a change means the perturbation
    # stream (or queue re-keying) changed, which invalidates every
    # recorded divergence seed.
    assert _completion_order(2) == "cdbfea"
    assert _completion_order(2) == _completion_order(2)


def test_different_seeds_reach_different_schedules():
    orders = {_completion_order(seed) for seed in range(6)}
    assert len(orders) > 1


def test_perturb_ties_refuses_a_running_loop():
    sim = Simulator()
    sim._running = True
    with pytest.raises(RuntimeError, match="running"):
        sim.perturb_ties(1)


def test_derive_seed_is_stable_and_collision_free():
    seeds = {
        derive_seed(0, scenario, index)
        for scenario in ("bft", "chain", "a2m")
        for index in range(8)
    }
    assert len(seeds) == 24
    assert derive_seed(0, "bft", 0) == derive_seed(0, "bft", 0)
    assert derive_seed(0, "bft", 0) != derive_seed(1, "bft", 0)


# ----------------------------------------------------------------------
# Harness: tier-1 scenarios digest-stable across eight schedules
# ----------------------------------------------------------------------

def test_scenarios_are_seed_reproducible():
    for name, scenario in SCENARIOS.items():
        seed = derive_seed(7, name, 0)
        assert scenario(seed) == scenario(seed), name


def test_run_sanitize_eight_seeds_all_stable():
    report = run_sanitize(seeds=8)
    assert report.ok, report.render()
    assert {r.name for r in report.results} == {
        "bft", "chain", "a2m", "view_change", "peer_review"}
    for result in report.results:
        assert len(result.runs) == 8
        assert result.divergent_seeds == []
    assert "schedule-independent" in report.render()


def _claim_race(perturb_seed: int | None) -> str:
    """Two followers wake at one instant; the first to run claims the slot."""
    sim = Simulator()
    claims: dict[str, str] = {}

    def follower(name: str):
        yield sim.timeout(10)
        claims.setdefault("slot", name)

    for name in ("f1", "f2"):
        sim.process(follower(name))
    if perturb_seed is not None:
        sim.perturb_ties(perturb_seed)
    sim.run()
    return claims["slot"]


def test_run_sanitize_catches_a_tie_order_race(monkeypatch):
    monkeypatch.setitem(SCENARIOS, "race", _claim_race)
    report = run_sanitize(scenario_names=["race"], seeds=8)
    assert not report.ok
    (result,) = report.results
    assert result.divergent_seeds
    rendered = report.render()
    assert "schedule dependence detected" in rendered
    assert f"seed {result.divergent_seeds[0]}:" in rendered
    assert "reproduce with this seed" in rendered


def test_run_sanitize_validates_arguments():
    with pytest.raises(ValueError, match="seeds"):
        run_sanitize(seeds=0)
    with pytest.raises(ValueError, match="unknown scenario"):
        run_sanitize(scenario_names=["bft", "nope"])


def test_run_sanitize_report_json_is_reproducible():
    import json

    first = run_sanitize(scenario_names=["bft"], seeds=2, root_seed=3)
    second = run_sanitize(scenario_names=["bft"], seeds=2, root_seed=3)
    assert json.dumps(first.to_json(), sort_keys=True) == \
        json.dumps(second.to_json(), sort_keys=True)
