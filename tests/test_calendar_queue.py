"""Calendar-queue edge cases (ISSUE 9).

The scheduler's correctness contract is ordering: global
``(time, tiebreak)`` order regardless of which bucket or heap an entry
travelled through.  These tests pin the boundaries where
a calendar queue differs structurally from the old binary heap —
bucket-boundary ties, scheduling into the bucket being drained, the
overflow horizon, and the ``perturb_ties`` seam.
"""

from __future__ import annotations

import pytest

from repro.sim.clock import (
    CALENDAR_HORIZON_BUCKETS,
    DEFAULT_BUCKET_WIDTH_US,
    EmptySchedule,
    Simulator,
)


def test_default_bucket_width_is_one_wire_hop():
    assert DEFAULT_BUCKET_WIDTH_US == 1.0


def test_bucket_width_must_be_positive():
    with pytest.raises(ValueError):
        Simulator(bucket_width_us=0.0)
    with pytest.raises(ValueError):
        Simulator(bucket_width_us=-1.0)


def test_reverse_scheduling_order_processes_in_time_order():
    sim = Simulator()
    fired: list[float] = []
    for delay in [9.5, 3.25, 7.0, 0.5, CALENDAR_HORIZON_BUCKETS + 0.5, 1.75]:
        sim.delayed_call(delay, lambda delay=delay: fired.append(delay))
    sim.run()
    assert fired == sorted(fired)
    assert sim.now == CALENDAR_HORIZON_BUCKETS + 0.5


def test_same_timestamp_fifo_at_a_bucket_boundary():
    """Ties at an exact bucket-boundary instant keep scheduling order."""
    sim = Simulator()
    order: list[str] = []
    # Scheduled while idle...
    sim.delayed_call(4.0, lambda: order.append("a"))
    sim.delayed_call(4.0, lambda: order.append("b"))
    # ...then, during the run, an earlier event schedules two more onto
    # the same boundary instant.
    def from_bucket_one() -> None:
        sim.delayed_call(3.0, lambda: order.append("c"))
        sim.delayed_call(3.0, lambda: order.append("d"))

    sim.delayed_call(1.0, from_bucket_one)
    sim.run()
    assert order == ["a", "b", "c", "d"]


def test_same_timestamp_fifo_spanning_many_buckets():
    """FIFO holds per instant while instants straddle bucket borders."""
    sim = Simulator(bucket_width_us=1.0)
    order: list[tuple[float, int]] = []
    # Interleave construction across instants so construction order and
    # time order disagree everywhere.
    for rank in range(4):
        for when in (0.5, 0.999, 1.0, 1.001, 2.0):
            sim.delayed_call(
                when, lambda when=when, rank=rank: order.append((when, rank))
            )
    sim.run()
    assert order == sorted(order)  # time-major, construction-rank minor


def test_schedule_into_the_draining_bucket_interleaves():
    """Callback-scheduled same-bucket events land in (time, tie) order."""
    sim = Simulator()
    order: list[str] = []

    def first() -> None:
        order.append("first@5.2")
        # Later within the bucket being drained right now:
        sim.delayed_call(0.3, lambda: order.append("mid@5.5"))
        # A tie with the *current* instant — runs after this callback,
        # before anything later:
        sim.delayed_call(0.0, lambda: order.append("tie@5.2"))
        # A tie with a not-yet-drained snapshot entry: the snapshot's
        # older tiebreak must win.
        sim.delayed_call(0.6, lambda: order.append("fresh-tie@5.8"))

    sim.delayed_call(5.2, first)
    sim.delayed_call(5.8, lambda: order.append("snapshot@5.8"))
    sim.run()
    assert order == [
        "first@5.2",
        "tie@5.2",
        "mid@5.5",
        "snapshot@5.8",
        "fresh-tie@5.8",
    ]


def test_cascading_zero_delay_chain_inside_one_bucket():
    sim = Simulator()
    order: list[int] = []

    def chain(depth: int) -> None:
        order.append(depth)
        if depth < 20:
            sim.delayed_call(0.0, lambda: chain(depth + 1))

    sim.delayed_call(2.5, lambda: chain(0))
    sim.run()
    assert order == list(range(21))
    assert sim.now == 2.5


def test_overflow_heap_migration_preserves_order():
    """Far-future timers cross the horizon and come back in order."""
    sim = Simulator(bucket_width_us=1.0)
    horizon_us = CALENDAR_HORIZON_BUCKETS * 1.0
    order: list[str] = []
    sim.delayed_call(10.0, lambda: order.append("near"))
    sim.delayed_call(horizon_us + 100.5, lambda: order.append("far"))
    sim.delayed_call(2 * horizon_us + 7.25, lambda: order.append("farther"))
    sim.run()
    assert order == ["near", "far", "farther"]
    assert sim.now == 2 * horizon_us + 7.25


def test_overflow_scheduled_during_run_migrates():
    sim = Simulator()
    horizon_us = CALENDAR_HORIZON_BUCKETS * DEFAULT_BUCKET_WIDTH_US
    order: list[str] = []

    def plant_far_timer() -> None:
        order.append("near")
        sim.delayed_call(3 * horizon_us, lambda: order.append("far"))

    sim.delayed_call(1.0, plant_far_timer)
    sim.run()
    assert order == ["near", "far"]


def test_step_migrates_when_only_overflow_remains():
    sim = Simulator()
    horizon_us = CALENDAR_HORIZON_BUCKETS * DEFAULT_BUCKET_WIDTH_US
    fired: list[str] = []
    sim.delayed_call(2 * horizon_us, lambda: fired.append("far"))
    sim.step()
    assert fired == ["far"]
    with pytest.raises(EmptySchedule):
        sim.step()


def test_run_until_deadline_restores_the_partial_bucket():
    """A mid-bucket deadline leaves the unprocessed tail schedulable."""
    sim = Simulator()
    order: list[str] = []
    sim.delayed_call(2.2, lambda: order.append("early"))
    sim.delayed_call(2.6, lambda: order.append("late"))
    sim.run(until=2.4)
    assert order == ["early"]
    assert sim.now == 2.4
    sim.run()
    assert order == ["early", "late"]
    assert sim.now == 2.6


def test_callback_exception_restores_unprocessed_entries():
    sim = Simulator()
    order: list[str] = []

    def boom() -> None:
        order.append("boom")
        raise RuntimeError("injected")

    sim.delayed_call(3.1, boom)
    sim.delayed_call(3.2, lambda: order.append("survivor-same-bucket"))
    sim.delayed_call(9.0, lambda: order.append("survivor-later"))
    with pytest.raises(RuntimeError, match="injected"):
        sim.run()
    sim.run()  # the calendar still holds exactly the unprocessed events
    assert order == ["boom", "survivor-same-bucket", "survivor-later"]


def test_perturb_ties_shuffles_ties_only_and_is_seeded():
    orders: set[tuple] = set()
    for seed in range(6):
        sim = Simulator()
        order: list = []
        sim.delayed_call(1.0, lambda: order.append("early"))
        for index in range(8):
            sim.delayed_call(3.0, lambda index=index: order.append(index))
        sim.perturb_ties(seed)
        sim.run()
        # Cross-timestamp order is untouched; ties are a permutation.
        assert order[0] == "early"
        assert sorted(order[1:]) == list(range(8))
        orders.add(tuple(order))
    assert len(orders) > 1  # seeds actually shuffle

    # Same seed twice -> identical order (reproducibility).
    def run_with_seed(seed: int) -> tuple:
        sim = Simulator()
        order: list = []
        for index in range(8):
            sim.delayed_call(3.0, lambda index=index: order.append(index))
        sim.perturb_ties(seed)
        sim.run()
        return tuple(order)

    assert run_with_seed(3) == run_with_seed(3)


def test_perturb_ties_rekeys_entries_already_in_the_calendar():
    """Perturbing after a partial run collapses buckets+overflow and
    re-keys them; every queued event still fires exactly once."""
    horizon_us = CALENDAR_HORIZON_BUCKETS * DEFAULT_BUCKET_WIDTH_US
    sim = Simulator()
    order: list = []
    for index in range(6):
        sim.delayed_call(5.0, lambda index=index: order.append(index))
    sim.delayed_call(horizon_us + 3.5, lambda: order.append("overflowed"))
    sim.run(until=1.0)
    sim.perturb_ties(11)
    sim.run()
    assert sorted(order[:-1]) == list(range(6))
    assert order[-1] == "overflowed"

    # perturb_ties(None) restores the FIFO counter: events scheduled
    # afterwards tie-break in construction order again.
    sim = Simulator()
    order = []
    sim.perturb_ties(23)
    sim.perturb_ties(None)
    for index in range(6):
        sim.delayed_call(5.0, lambda index=index: order.append(index))
    sim.run()
    assert order == list(range(6))


def test_custom_bucket_width_preserves_ordering():
    for width in (0.25, 2.0, 128.0):
        sim = Simulator(bucket_width_us=width)
        fired: list[float] = []
        for delay in [9.5, 3.25, 7.0, 0.5, 1.75, 3.25]:
            sim.delayed_call(delay, lambda delay=delay: fired.append(delay))
        sim.run()
        assert fired == sorted(fired), f"width={width}"
