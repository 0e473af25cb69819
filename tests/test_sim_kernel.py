"""Unit tests for the discrete-event simulation kernel."""

import random
import sys

import pytest

from repro.sim import DeterministicRng, Pipe, Simulator
from repro.sim.clock import EmptySchedule


def test_timeout_advances_clock():
    sim = Simulator()
    t = sim.timeout(5.0, "done")
    assert sim.run(t) == "done"
    assert sim.now == 5.0


def test_timeouts_fire_in_order():
    sim = Simulator()
    seen = []
    for delay in (3.0, 1.0, 2.0):
        sim.timeout(delay).callbacks.append(
            lambda _e, d=delay: seen.append((d, sim.now))
        )
    sim.run()
    assert seen == [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_step_on_empty_schedule_raises():
    sim = Simulator()
    with pytest.raises(EmptySchedule):
        sim.step()


def test_run_until_time_stops_clock_exactly():
    sim = Simulator()
    sim.timeout(10.0)
    sim.run(until=4.0)
    assert sim.now == 4.0


def test_an_instant_before_now_is_refused():
    # Filing an instant in the past used to run the clock backwards: the
    # second entry ran at 5.0 after the first at 10.0, and the clock
    # ended at 5.0.
    sim = Simulator()
    seen = []
    sim.call_at(10.0, lambda _arg: seen.append(sim.now), None)
    sim.run()
    with pytest.raises(ValueError, match="before now"):
        sim.call_at(5.0, seen.append, "five")
    sim.call_at(10.0, seen.append, "now")  # the current instant is not past
    sim.run()
    assert seen == [10.0, "now"] and sim.now == 10.0


def test_a_call_runs_its_step_with_its_argument_and_no_event():
    sim = Simulator()
    seen = []
    assert sim.call_at(2.5, seen.append, "arg") is None
    [(when, _tie, step, arg)] = sim._heap
    assert (when, step, arg) == (2.5, seen.append, "arg")
    sim.run()
    assert seen == ["arg"] and sim.now == 2.5


def test_process_sequencing_and_return_value():
    sim = Simulator()

    def worker():
        yield sim.timeout(2.0)
        yield sim.timeout(3.0)
        return "finished"

    proc = sim.process(worker())
    assert sim.run(proc) == "finished"
    assert sim.now == 5.0


def test_process_waits_on_other_process():
    sim = Simulator()
    log = []

    def child():
        yield sim.timeout(4.0)
        log.append(("child", sim.now))
        return 42

    def parent():
        result = yield sim.process(child())
        log.append(("parent", sim.now))
        return result

    assert sim.run(sim.process(parent())) == 42
    assert log == [("child", 4.0), ("parent", 4.0)]


def test_process_exception_propagates_to_waiter():
    sim = Simulator()

    def failing():
        yield sim.timeout(1.0)
        raise RuntimeError("boom")

    proc = sim.process(failing())
    with pytest.raises(RuntimeError, match="boom"):
        sim.run(proc)


def test_yielding_non_event_fails_process():
    sim = Simulator()

    def bad():
        yield 42

    proc = sim.process(bad())
    with pytest.raises(TypeError):
        sim.run(proc)


def test_any_of_and_all_of():
    sim = Simulator()
    fast = sim.timeout(1.0, "fast")
    slow = sim.timeout(5.0, "slow")

    def waiter():
        first = yield sim.any_of([fast, slow])
        assert fast in first
        both = yield sim.all_of([fast, slow])
        return sorted(both.values())

    assert sim.run(sim.process(waiter())) == ["fast", "slow"]
    assert sim.now == 5.0


# ----------------------------------------------------------------------
# Event API edges
# ----------------------------------------------------------------------
def test_event_value_before_trigger_raises():
    sim = Simulator()
    event = sim.event()
    with pytest.raises(RuntimeError, match="before trigger"):
        _ = event.value


def test_event_double_trigger_rejected():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(RuntimeError, match="already triggered"):
        event.succeed(2)
    with pytest.raises(RuntimeError, match="already triggered"):
        event.fail(ValueError("x"))
    # A trigger in a loop that outlives the event: the second pass raises.
    tick = sim.event()
    with pytest.raises(RuntimeError, match="already triggered"):
        for batch in range(2):
            tick.succeed(batch)
    assert tick.value == 0


def test_a_wait_nothing_triggers_ends_the_run_with_an_error():
    sim = Simulator()

    def forgotten():
        yield sim.event()

    with pytest.raises(RuntimeError, match="ran out of events"):
        sim.run(sim.process(forgotten()))


def test_event_fail_requires_exception():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")


def test_failed_event_value_raises_original():
    sim = Simulator()
    event = sim.event()
    event.fail(KeyError("gone"))
    sim.run()
    with pytest.raises(KeyError):
        _ = event.value


def test_run_until_past_raises():
    sim = Simulator()
    sim.timeout(10)
    sim.run(until=5.0)
    with pytest.raises(ValueError):
        sim.run(until=1.0)


def test_pipe_serialises_transfers():
    sim = Simulator()
    pipe = Pipe(sim, bandwidth_bytes_per_us=100.0, propagation_us=1.0)
    done = []
    pipe.transfer(200, lambda _arg: done.append(sim.now), None)
    pipe.transfer(100, lambda _arg: done.append(sim.now), None)
    sim.run()
    # First: 2us serialisation + 1us propagation; second queues behind it.
    assert done == [pytest.approx(3.0), pytest.approx(4.0)]
    assert pipe.bytes_transferred == 300


def test_rng_determinism_and_stream_independence():
    a1 = DeterministicRng(7, "x")
    a2 = DeterministicRng(7, "x")
    b = DeterministicRng(7, "y")
    seq1 = [a1.random() for _ in range(5)]
    seq2 = [a2.random() for _ in range(5)]
    seq3 = [b.random() for _ in range(5)]
    assert seq1 == seq2
    assert seq1 != seq3


@pytest.mark.parametrize("sigma", [0.02, 0.05, 0.08, 0.10, 0.25, 1.0])
def test_lognormal_jitter_is_bit_identical_to_lognormvariate(sigma):
    # The sampler is written out in rng.py; the library call is the
    # reference, fed from the same generator state.
    for seed in range(25):
        rng = DeterministicRng(seed, "jitter")
        reference = random.Random()
        reference.setstate(rng._random.getstate())
        for _ in range(100):
            assert (rng.lognormal_jitter(6.25, sigma)
                    == 6.25 * reference.lognormvariate(0.0, sigma))
        assert rng.random() == reference.random()  # same draws consumed


def test_rng_chance_bounds():
    rng = DeterministicRng(1)
    with pytest.raises(ValueError):
        rng.chance(1.5)
    assert rng.chance(0.0) is False
    assert rng.chance(1.0) is True


# ----------------------------------------------------------------------
# Same-timestamp ordering: every scheduling path draws from one global
# tiebreak counter, so simultaneous events process in FIFO scheduling
# order regardless of which primitive enqueued them.
# ----------------------------------------------------------------------
def test_same_timestamp_fifo_across_scheduling_paths():
    sim = Simulator()
    order = []

    # Interleave the three scheduling paths at the same instant:
    # timeout(), succeed() and delayed_call (Timeout + callback).
    t1 = sim.timeout(5.0)
    t1.callbacks.append(lambda _e: order.append("timeout-1"))
    e1 = sim.event()
    e1.succeed()
    e1.callbacks.append(lambda _e: order.append("triggered-1"))
    sim.delayed_call(5.0, lambda: order.append("delayed-1"))
    t2 = sim.timeout(5.0)
    t2.callbacks.append(lambda _e: order.append("timeout-2"))
    e2 = sim.event()
    e2.succeed()
    e2.callbacks.append(lambda _e: order.append("triggered-2"))

    sim.run()
    # Time 0 first (both triggered events, FIFO), then the 5.0 batch in
    # exact scheduling order.
    assert order == [
        "triggered-1", "triggered-2", "timeout-1", "delayed-1", "timeout-2"
    ]


def test_same_timestamp_fifo_for_events_scheduled_during_run():
    sim = Simulator()
    order = []

    def spawner(_event):
        # Scheduled while the loop is draining: these land in the live
        # heap, and must still run FIFO among themselves and *after*
        # already-pending events at the same timestamp.
        a = sim.timeout(0.0)
        a.callbacks.append(lambda _e: order.append("fresh-a"))
        b = sim.timeout(0.0)
        b.callbacks.append(lambda _e: order.append("fresh-b"))

    first = sim.timeout(1.0)
    first.callbacks.append(spawner)
    pending = sim.timeout(1.0)
    pending.callbacks.append(lambda _e: order.append("pending"))
    sim.run()
    assert order == ["pending", "fresh-a", "fresh-b"]


# ----------------------------------------------------------------------
# Ordering and early exits: global (time, tiebreak) order whichever way
# an entry was scheduled, and an interrupted loop leaves exactly the
# unprocessed entries queued.
# ----------------------------------------------------------------------
#: A delay far beyond any round trip (the retransmission-timer range).
FAR = 4096.0


def test_reverse_scheduling_order_processes_in_time_order():
    sim = Simulator()
    fired: list[float] = []
    for delay in [9.5, 3.25, 7.0, 0.5, FAR + 0.5, 1.75]:
        sim.delayed_call(delay, lambda delay=delay: fired.append(delay))
    sim.run()
    assert fired == sorted(fired)
    assert sim.now == FAR + 0.5


def test_same_timestamp_fifo_idle_then_during_run():
    """Ties keep scheduling order across idle and in-run scheduling."""
    sim = Simulator()
    order: list[str] = []
    # Scheduled while idle...
    sim.delayed_call(4.0, lambda: order.append("a"))
    sim.delayed_call(4.0, lambda: order.append("b"))
    # ...then, during the run, an earlier event schedules two more onto
    # the same instant.
    def from_an_earlier_event() -> None:
        sim.delayed_call(3.0, lambda: order.append("c"))
        sim.delayed_call(3.0, lambda: order.append("d"))

    sim.delayed_call(1.0, from_an_earlier_event)
    sim.run()
    assert order == ["a", "b", "c", "d"]


def test_same_timestamp_fifo_with_interleaved_instants():
    """FIFO holds per instant when construction and time order disagree."""
    sim = Simulator()
    order: list[tuple[float, int]] = []
    for rank in range(4):
        for when in (0.5, 0.999, 1.0, 1.001, 2.0):
            sim.delayed_call(
                when, lambda when=when, rank=rank: order.append((when, rank))
            )
    sim.run()
    assert order == sorted(order)  # time-major, construction-rank minor


def test_callback_scheduled_events_interleave_with_pending():
    """Callback-scheduled events land in (time, tie) order among the
    entries that were already pending."""
    sim = Simulator()
    order: list[str] = []

    def first() -> None:
        order.append("first@5.2")
        sim.delayed_call(0.3, lambda: order.append("mid@5.5"))
        # A tie with the *current* instant — runs after this callback,
        # before anything later:
        sim.delayed_call(0.0, lambda: order.append("tie@5.2"))
        # A tie with an already-pending entry: the older tiebreak wins.
        sim.delayed_call(0.6, lambda: order.append("new-tie@5.8"))

    sim.delayed_call(5.2, first)
    sim.delayed_call(5.8, lambda: order.append("pending@5.8"))
    sim.run()
    assert order == [
        "first@5.2",
        "tie@5.2",
        "mid@5.5",
        "pending@5.8",
        "new-tie@5.8",
    ]


def test_cascading_zero_delay_chain():
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


def test_far_future_timers_fire_in_order():
    sim = Simulator()
    order: list[str] = []
    sim.delayed_call(10.0, lambda: order.append("near"))
    sim.delayed_call(FAR + 100.5, lambda: order.append("far"))
    sim.delayed_call(2 * FAR + 7.25, lambda: order.append("farther"))
    sim.run()
    assert order == ["near", "far", "farther"]
    assert sim.now == 2 * FAR + 7.25


def test_far_future_timer_scheduled_during_run():
    sim = Simulator()
    order: list[str] = []

    def plant_far_timer() -> None:
        order.append("near")
        sim.delayed_call(3 * FAR, lambda: order.append("far"))

    sim.delayed_call(1.0, plant_far_timer)
    sim.run()
    assert order == ["near", "far"]


def test_step_reaches_a_lone_far_future_timer():
    sim = Simulator()
    fired: list[str] = []
    sim.delayed_call(2 * FAR, lambda: fired.append("far"))
    sim.step()
    assert fired == ["far"]
    with pytest.raises(EmptySchedule):
        sim.step()


def test_run_until_deadline_leaves_later_entries_queued():
    sim = Simulator()
    order: list[str] = []
    sim.delayed_call(2.2, lambda: order.append("early"))
    sim.delayed_call(2.6, lambda: order.append("late"))
    sim.run(until=2.4)
    assert order == ["early"]
    assert sim.now == 2.4
    assert len(sim._heap) == 1
    sim.run()
    assert order == ["early", "late"]
    assert sim.now == 2.6


def test_callback_exception_leaves_unprocessed_entries_queued():
    sim = Simulator()
    order: list[str] = []

    def boom() -> None:
        order.append("boom")
        raise RuntimeError("injected")

    sim.delayed_call(3.1, boom)
    sim.delayed_call(3.2, lambda: order.append("survivor-soon"))
    sim.delayed_call(9.0, lambda: order.append("survivor-later"))
    with pytest.raises(RuntimeError, match="injected"):
        sim.run()
    assert len(sim._heap) == 2  # exactly the unprocessed events
    sim.run()
    assert order == ["boom", "survivor-soon", "survivor-later"]


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


def test_perturb_ties_rekeys_queued_entries():
    """Perturbing after a partial run re-keys what is queued; every
    queued event still fires exactly once."""
    sim = Simulator()
    order: list = []
    for index in range(6):
        sim.delayed_call(5.0, lambda index=index: order.append(index))
    sim.delayed_call(FAR + 3.5, lambda: order.append("far"))
    sim.run(until=1.0)
    sim.perturb_ties(11)
    sim.run()
    assert sorted(order[:-1]) == list(range(6))
    assert order[-1] == "far"

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


def test_run_is_not_reentrant():
    sim = Simulator()

    def nested(_event):
        with pytest.raises(RuntimeError, match="event loop"):
            sim.run()

    trigger = sim.timeout(1.0)
    trigger.callbacks.append(nested)
    sim.run()


def test_step_is_not_reentrant():
    sim = Simulator()
    processed = []

    def nested(_event):
        processed.append(sim.now)
        with pytest.raises(RuntimeError, match="event loop"):
            sim.step()

    sim.timeout(1.0).callbacks.append(nested)
    for delay in (1.5, 5.0):
        sim.timeout(delay).callbacks.append(lambda _e: processed.append(sim.now))
    sim.run()
    # The refused nested step() processed nothing out of turn.
    assert processed == [1.0, 1.5, 5.0]


# ----------------------------------------------------------------------
# A wait that is already over does not go back through the scheduler.
# ----------------------------------------------------------------------
def _count_pushes(sim):
    """Count the scheduler entries filed from here on, ``sim._push``'s
    and ``sim.call_at``'s; returns the live cell."""
    pushes = [0]
    push, call_at = sim._push, sim.call_at

    def counting(when, event):
        pushes[0] += 1
        push(when, event)

    def counting_call(when, fn, arg):
        pushes[0] += 1
        call_at(when, fn, arg)

    sim._push = counting
    sim.call_at = counting_call
    return pushes


def test_a_wait_that_is_already_over_continues_without_a_scheduler_trip():
    sim = Simulator()
    queued = sim.timeout(0.0, "queued")
    failed = sim.event().fail(KeyError("boom"))
    finished = sim.timeout(1.0, "old news")
    sim.run()  # all three are processed before the process yields them
    seen = []

    def worker():
        seen.append((yield queued))
        try:
            yield failed
        except KeyError as exc:
            seen.append(exc.args[0])
        seen.append((yield finished))
        return sim.now

    pushes = _count_pushes(sim)
    assert sim.run(sim.process(worker())) == 1.0
    assert seen == ["queued", "boom", "old news"]
    assert pushes[0] == 2  # the process's start and its completion


def test_an_unhandled_failure_of_an_already_processed_event_fails_the_process():
    sim = Simulator()
    failed = sim.event().fail(KeyError("boom"))
    sim.run()

    def worker():
        yield failed

    proc = sim.process(worker())
    with pytest.raises(KeyError):
        sim.run(proc)


def test_a_process_that_never_blocks_drains_a_long_backlog_in_a_loop():
    # Continue-while-processed is a loop, not recursion: a backlog far
    # deeper than the interpreter's recursion limit drains in one entry.
    sim = Simulator()
    backlog = 5 * sys.getrecursionlimit()
    ready = [sim.timeout(0.0, n) for n in range(backlog)]
    sim.run()

    def consumer():
        total = 0
        for event in ready:
            total += yield event
        return total

    pushes = _count_pushes(sim)
    assert sim.run(sim.process(consumer())) == sum(range(backlog))
    assert pushes[0] == 2
