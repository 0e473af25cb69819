"""Discrete-event simulation substrate.

Every performance number in this reproduction is measured in *virtual
time* produced by this simulator, so results are deterministic and
independent of the host machine.  The kernel is a small generator-based
process simulator in the style of SimPy:

* :class:`~repro.sim.clock.Simulator` — the event loop and virtual clock.
* :class:`~repro.sim.events.Event` / :class:`~repro.sim.events.Timeout` —
  awaitable occurrences; processes ``yield`` them.
* :class:`~repro.sim.process.Process` — a generator running in virtual
  time.
* :mod:`~repro.sim.resources` — mutexes, FIFO stores, serial servers and
  bandwidth pipes.
* :mod:`~repro.sim.latency` — the single calibration table holding every
  measured constant from the paper's evaluation (§8).
"""

from repro.sim.clock import Simulator
from repro.sim.events import AnyOf, AllOf, Event, Timeout
from repro.sim.process import Process
from repro.sim.resources import TIMED_OUT, Pipe, Resource, SerialServer, Store
from repro.sim.rng import DeterministicRng

__all__ = [
    "AllOf",
    "AnyOf",
    "DeterministicRng",
    "Event",
    "Pipe",
    "Process",
    "Resource",
    "SerialServer",
    "Simulator",
    "Store",
    "TIMED_OUT",
    "Timeout",
]
