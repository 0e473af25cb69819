"""Differential test: the analytic serial server vs. the process it replaced.

``HmacEngine`` and ``NetworkStack`` used to model their one-at-a-time
stage as a capacity-1 lock plus a worker process per job.  That
pipeline survives here as the reference (with :class:`_Lock`, the lock
it held): for random arrival patterns the analytic
:class:`~repro.sim.resources.SerialServer` must complete every job at
the bit-identical instant, in the same order.

Likewise ``DmaEngine.transfer``: it used to be a chain of three events
(set-up timeout → PCIe pipe timeout → ``done``) and is one call filed
at the computed completion instant; the chain is the reference.

The subjects take the step to run on completion; the references still
return events, and :func:`_then` hangs the step on those.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.dma import DmaEngine
from repro.crypto.hmac_engine import HmacEngine
from collections import deque

from repro.sim import SerialServer, Simulator
from repro.sim.latency import (
    PCIE_BANDWIDTH_BYTES_PER_US,
    TNIC_ASYNC_FIXED_US,
    tnic_hmac_pipeline_us,
)


class _Lock:
    """A capacity-1 lock with FIFO waiters: ``acquire`` returns an event
    that triggers once the lock is held."""

    def __init__(self, sim):
        self.sim = sim
        self._held = False
        self._waiters = deque()

    def acquire(self):
        event = self.sim.event()
        if self._held:
            self._waiters.append(event)
        else:
            self._held = True
            event.succeed()
        return event

    def release(self):
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self._held = False


class _ReferenceEngine:
    """The process-based HMAC pipeline as it was before the rewrite."""

    def __init__(self, sim):
        self.sim = sim
        self._pipeline = _Lock(sim)
        self.operations = 0
        self.busy_us = 0.0

    def occupy(self, size_bytes, value=None):
        done = self.sim.event()
        self.sim.process(self._run(size_bytes, value, done))
        return done

    def _run(self, size, value, done):
        yield self._pipeline.acquire()
        delay = tnic_hmac_pipeline_us(size)
        self.operations += 1
        self.busy_us += delay
        try:
            yield self.sim.timeout(delay)
        finally:
            self._pipeline.release()
        done.succeed(value)


def _reference_serve(sim, lock, service_us, value, tail_us):
    """``NetworkStack._send_process`` as it was: hold, release, tail."""
    done = sim.event()

    def job():
        yield lock.acquire()
        try:
            yield sim.timeout(service_us)
        finally:
            lock.release()
        yield sim.timeout(tail_us)
        done.succeed(value)

    sim.process(job())
    return done


def _then(event, step):
    """Run ``step(value)`` when a reference's *event* is processed."""
    event.callbacks.append(lambda done: step(done.value))


def _completions(submit_for, arrivals):
    """Run one simulator: job *i* is submitted ``gap`` µs after job
    *i-1* (0 = same instant) with a step that records its value; returns
    ``[(value, completion instant)]`` in completion order, plus whatever
    ``submit_for`` built."""
    sim = Simulator()
    submit, subject = submit_for(sim)
    finished = []

    def record(value):
        finished.append((value, sim.now))

    def driver():
        for index, (gap, *job) in enumerate(arrivals):
            if gap:
                yield sim.timeout(gap)
            submit(record, index, *job)

    sim.process(driver())
    sim.run()
    return finished, subject


# Same-instant bursts (gap 0), back-to-back arrivals inside one
# occupancy (~7 µs at 64 B) and idle gaps that let the pipeline drain.
_gaps = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.001, max_value=5.0),
    st.floats(min_value=5.0, max_value=500.0),
)
_sizes = st.integers(min_value=0, max_value=64 * 1024)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_gaps, _sizes), min_size=1, max_size=40))
def test_hmac_engine_matches_the_process_based_pipeline(arrivals):
    def reference_engine(sim):
        engine = _ReferenceEngine(sim)
        return (lambda step, index, size:
                _then(engine.occupy(size, index), step)), engine

    def analytic_engine(sim):
        engine = HmacEngine(sim)
        return (lambda step, index, size:
                engine.occupy(size, step, index)), engine

    expected, reference = _completions(reference_engine, arrivals)
    observed, engine = _completions(analytic_engine, arrivals)
    assert observed == expected  # bit-equal instants, same order
    assert [index for index, _ in observed] == list(range(len(arrivals)))
    assert engine.operations == reference.operations == len(arrivals)
    assert engine.busy_us == reference.busy_us


_times = st.floats(min_value=0.0, max_value=50.0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_gaps, _times, _times), min_size=1, max_size=40))
def test_serve_with_a_tail_matches_hold_release_then_wait(arrivals):
    def reference(sim):
        lock = _Lock(sim)
        return (lambda step, index, service, tail: _then(
            _reference_serve(sim, lock, service, index, tail), step)), None

    def analytic(sim):
        server = SerialServer(sim)
        return (lambda step, index, service, tail:
                server.serve(service, step, index, tail_us=tail)), None

    expected, _ = _completions(reference, arrivals)
    observed, _ = _completions(analytic, arrivals)
    # Tails differ per job, so completion order is not submission order;
    # what must agree is every job's completion instant.
    assert sorted(observed) == sorted(expected)
    assert [when for _, when in observed] == sorted(when for _, when in observed)


class _ReferenceDma:
    """``DmaEngine.transfer`` as it was: three chained events."""

    def __init__(self, sim):
        self.sim = sim
        self.setup = TNIC_ASYNC_FIXED_US
        self._busy_until = 0.0  # the PCIe pipe's, propagation 0
        self._moved_at = 0.0  # when the last transfer's move lands

    def transfer(self, size_bytes):
        sim = self.sim
        done = sim.event()

        def start():  # the old Pipe.transfer, entered after the set-up
            now = sim.now
            begin = now if now > self._busy_until else self._busy_until
            self._busy_until = begin + size_bytes / PCIE_BANDWIDTH_BYTES_PER_US
            delay = self._busy_until + 0.0 - now
            if now + delay < self._moved_at:
                # A zero-byte transfer behind a busy pipe lands with the
                # transfer ahead of it, not an ulp before.
                sim.call_at(self._moved_at, done.succeed, size_bytes)
            else:
                move = sim.timeout(delay, size_bytes)
                self._moved_at = now + delay
                move.callbacks.append(lambda _event: done.succeed(size_bytes))

        sim.delayed_call(self.setup, start)
        return done


# Overlap needs arrivals closer than a transfer: 64 KiB is ~5.5 µs of
# PCIe occupancy, the set-up 0.5 µs.
@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_gaps, _sizes), min_size=1, max_size=40))
# ``arrive + (busy_until - arrive)`` is not ``busy_until`` here: filing
# the step at the shorter expression moves the second completion.
@example([(0.278, 16380), (0.0, 59880)])
# A zero-byte transfer queued behind a busy pipe rounds one ulp below
# the completion ahead of it unless it is filed at that completion.
@example([(0.0, 11852), (0.0, 160), (0.001, 0)])
@example([(0.0, 12512), (0.001, 0)])
@example([(0.99999, 24016), (0.001, 0)])
def test_dma_transfer_matches_the_three_event_chain(arrivals):
    def reference_dma(sim):
        engine = _ReferenceDma(sim)
        return (lambda step, _index, size:
                _then(engine.transfer(size), step)), engine

    def analytic_dma(sim):
        engine = DmaEngine(sim)
        return (lambda step, _index, size:
                engine.transfer(size, step, size)), engine

    expected, _ = _completions(reference_dma, arrivals)
    observed, engine = _completions(analytic_dma, arrivals)
    sizes = [size for _, size in arrivals]
    assert observed == expected  # bit-equal instants, submission order
    assert [size for size, _ in observed] == sizes
    assert engine.transfers == len(arrivals) and engine.bytes_moved == sum(sizes)
