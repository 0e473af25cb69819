"""Seeded-broken hot-path corpus: every PERF rule fires here.

``Simulator.step`` / ``Simulator._drain`` match the manifest's entry
patterns, so everything below is in the hot set.  The exact findings
(rule, line) are enumerated in ``tests/test_hotpath.py``.
"""


class EventRecord:
    """No __slots__, instantiated per step: the PERF002 shape."""

    def __init__(self, psn):
        self.psn = psn


class Simulator:
    def __init__(self):
        self.queue = [3, 2, 1]
        self.telemetry = None
        self.mac = None

    def step(self):
        labels = [str(item) for item in self.queue]
        banner = "queue:" + str(len(labels))
        callback = lambda event: None  # noqa: E731
        record = EventRecord(len(labels))
        emit(self, "sim.step", f"depth={len(self.queue)}")
        self._drain()
        return banner, callback, record

    def _drain(self):
        while self.queue:
            self.mac.port.transmit(self.queue.pop())
        return EventRecord(0)


def emit(sim, category, message):
    telemetry = sim.telemetry
    if telemetry is not None:
        telemetry.record(category, message)
