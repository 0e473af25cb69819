"""Clean twin of the hot-path corpus: the same kernel, allocation-free.

Every seeded PERF violation in ``broken/`` has its idiomatic fix here:
``__slots__`` on the per-event record (or ``@record``, which makes a
slotted class), a gated f-string emit next to an
ungated-but-cheap counter bump, an f-string emit whose gate is one
operand of an ``and``, and an f-string emit gated on a held span's
identity (``span is not NULL_SPAN``).
"""

from repro.sim.record import Record, record

NULL_SPAN = object()


class EventRecord:
    __slots__ = ("psn",)

    def __init__(self, psn):
        self.psn = psn


@record
class StepMark(Record):
    depth: int


class Simulator:
    def __init__(self):
        self.queue = [3, 2, 1]
        self.telemetry = None
        self.mac = None
        self.span = NULL_SPAN

    def step(self):
        record = EventRecord(len(self.queue))
        mark = StepMark(len(self.queue))
        telemetry = self.telemetry
        if telemetry is not None:
            emit(self, "sim.step", f"depth={len(self.queue)}")
        count(self, "sim.steps")
        if self.queue and telemetry is not None:
            emit(self, "sim.head", f"head={self.queue[-1]}")
        if self.span is not NULL_SPAN:
            emit(self, "sim.span", f"open={self.span}")
        self._drain()
        return record, mark

    def _drain(self):
        while self.queue:
            self.mac.port.transmit(self.queue.pop())
        return EventRecord(0)


def emit(sim, category, message):
    telemetry = sim.telemetry
    if telemetry is not None:
        telemetry.record(category, message)


def count(sim, category):
    telemetry = sim.telemetry
    if telemetry is not None:
        telemetry.bump(category)
