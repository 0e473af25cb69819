"""Discrete-event simulation substrate.

Every performance number in this reproduction is measured in *virtual
time* produced by this simulator, so results are deterministic and
independent of the host machine.  The kernel is a small generator-based
process simulator in the style of SimPy:

* :class:`~repro.sim.clock.Simulator` — the event loop and virtual clock.
* :class:`~repro.sim.events.Event` / :class:`~repro.sim.events.Timeout` —
  awaitable occurrences; processes ``yield`` them.
* :class:`~repro.sim.process.Process` — a generator running in virtual
  time: the programming model of the §6 API's examples and tests.  The
  replicated systems' nodes are callback-driven stations
  (``repro.systems.common.Station``), not processes.
* :mod:`~repro.sim.resources` — serial servers and bandwidth pipes.
* :mod:`~repro.sim.latency` — the single calibration table holding every
  measured constant from the paper's evaluation (§8).
"""

from repro.sim.clock import Simulator
from repro.sim.events import AnyOf, AllOf, Event, Timeout
from repro.sim.process import Process
from repro.sim.resources import Pipe, SerialServer
from repro.sim.rng import DeterministicRng

__all__ = [
    "AllOf",
    "AnyOf",
    "DeterministicRng",
    "Event",
    "Pipe",
    "Process",
    "SerialServer",
    "Simulator",
    "Timeout",
]
