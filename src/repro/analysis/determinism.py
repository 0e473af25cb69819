"""Determinism lint: mechanise DESIGN.md's "simulations are deterministic".

Every stochastic element of the simulation must draw from an explicitly
seeded stream (:class:`repro.sim.rng.DeterministicRng` or a seeded
``random.Random``).  These rules flag the ways wall-clock state,
process-global randomness, or interpreter-dependent ordering can leak
into simulated behaviour and silently break replayability:

* ``DET001`` — wall-clock reads (``time.time`` and friends),
* ``DET002`` — ``datetime``/``date`` "now" constructors,
* ``DET003`` — unseeded randomness (module-level ``random`` calls,
  zero-argument ``random.Random()``, ``os.urandom``, ``secrets``,
  ``uuid.uuid1/uuid4``),
* ``DET004`` — environment reads (``os.environ`` / ``os.getenv``),
* ``DET005`` — set-ordering hazards (``list(set(...))`` and iteration
  directly over a freshly built set; use ``sorted`` instead).

The analysis package itself is exempt (it is tooling, not simulation);
any other intentional use carries a ``# lint: ignore[DET00x]`` waiver.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.rules import Finding, Rule
from repro.analysis.walker import SourceFile, dotted_name

#: Packages outside the simulation's determinism contract.
EXEMPT_PACKAGES = ("repro.analysis",)

_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
}

_NOW_CALLS = {
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "date.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

_UNSEEDED_CALLS = {
    "os.urandom",
    "uuid.uuid1",
    "uuid.uuid4",
    "random.SystemRandom",
}

#: Module-level functions on ``random`` that use the process-global RNG.
_GLOBAL_RANDOM_FUNCS = {
    "random", "randint", "randrange", "getrandbits", "choice", "choices",
    "shuffle", "sample", "uniform", "gauss", "expovariate", "betavariate",
    "lognormvariate", "normalvariate", "vonmisesvariate", "paretovariate",
    "weibullvariate", "triangular", "randbytes", "seed",
}


def _exempt(src: SourceFile) -> bool:
    return any(
        src.module == pkg or src.module.startswith(pkg + ".")
        for pkg in EXEMPT_PACKAGES
    )


class _CallPatternRule(Rule):
    """Shared shape: flag specific dotted-call patterns in a file."""

    def match(self, name: str, node: ast.Call) -> str | None:
        raise NotImplementedError

    def check(self, src: SourceFile) -> Iterator[Finding]:
        if _exempt(src):
            return
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            message = self.match(name, node)
            if message:
                yield self.finding(src, node.lineno, node.col_offset, message)


class WallClockRule(_CallPatternRule):
    rule_id = "DET001"
    description = (
        "wall-clock read inside simulation code; use the simulator's "
        "virtual clock (Simulator.now) instead"
    )
    explanation = (
        "The discrete-event simulation is the reproduction's measurement "
        "instrument: every figure is a function of virtual time and the "
        "seed.  A wall-clock read (time.time, time.monotonic, "
        "time.perf_counter, ...) couples simulated behaviour to the host "
        "machine's speed, so two runs of the same seed diverge and no "
        "reported number is reproducible.  Read Simulator.now instead; "
        "host-side benchmarking belongs in benchmarks/, not in "
        "simulation code."
    )

    def match(self, name: str, node: ast.Call) -> str | None:
        if name in _CLOCK_CALLS:
            return f"`{name}()` reads the wall clock; use the virtual clock"
        return None


class DatetimeNowRule(_CallPatternRule):
    rule_id = "DET002"
    description = (
        "datetime/date 'now' constructor; timestamps must derive from "
        "virtual time or an explicit argument"
    )
    explanation = (
        "datetime.now()/utcnow()/date.today() are wall-clock reads in "
        "calendar clothing: they make simulated state depend on when the "
        "test suite happened to run.  Derive timestamps from the virtual "
        "clock (Simulator.now) or take them as explicit arguments so the "
        "caller controls them deterministically."
    )

    def match(self, name: str, node: ast.Call) -> str | None:
        if name in _NOW_CALLS:
            return f"`{name}()` is wall-clock dependent"
        return None


class UnseededRandomRule(_CallPatternRule):
    rule_id = "DET003"
    description = (
        "unseeded randomness (global `random` module, zero-arg "
        "random.Random(), os.urandom, secrets, uuid4); draw from "
        "repro.sim.rng.DeterministicRng or a seeded random.Random"
    )
    explanation = (
        "The process-global random module, zero-argument random.Random(), "
        "os.urandom, secrets and uuid1/uuid4 all draw entropy the run "
        "cannot replay: a failing seed can never be reproduced, and "
        "cross-run digests (the sanitizer's, the golden traces') stop "
        "matching.  Every random draw must come from "
        "repro.sim.rng.DeterministicRng or an explicitly seeded "
        "random.Random that traces back to the scenario seed."
    )

    def match(self, name: str, node: ast.Call) -> str | None:
        if name in _UNSEEDED_CALLS or name.startswith("secrets."):
            return f"`{name}()` is non-deterministic"
        if name == "random.Random" and not node.args and not node.keywords:
            return "`random.Random()` without a seed is non-deterministic"
        if name.startswith("random.") and name.split(".", 1)[1] in _GLOBAL_RANDOM_FUNCS:
            return (
                f"`{name}()` uses the process-global RNG; "
                "use a seeded stream (repro.sim.rng)"
            )
        return None


class EnvironReadRule(Rule):
    rule_id = "DET004"
    description = (
        "environment read inside simulation code; behaviour must be a "
        "function of explicit parameters and the seed"
    )
    explanation = (
        "os.environ reads make simulated behaviour a function of ambient "
        "shell state — invisible in the call signature, different on "
        "every machine, and absent from the seed.  Configuration enters "
        "the simulation as explicit constructor/function parameters so "
        "that a (seed, parameters) pair fully determines a run."
    )

    def check(self, src: SourceFile) -> Iterator[Finding]:
        if _exempt(src):
            return
        for node in ast.walk(src.tree):
            name: str | None = None
            if isinstance(node, ast.Call):
                called = dotted_name(node.func)
                if called == "os.getenv":
                    name = called
                elif called == "os.environ.get":
                    name = "os.environ"
            elif isinstance(node, ast.Subscript):
                if dotted_name(node.value) == "os.environ":
                    name = "os.environ"
            if name:
                yield self.finding(
                    src, node.lineno, node.col_offset,
                    f"`{name}` read makes behaviour depend on the environment",
                )


def _is_set_build(node: ast.expr) -> bool:
    """A freshly built set with interpreter-hash-dependent iteration order."""
    if isinstance(node, ast.Set):
        return True
    if isinstance(node, ast.SetComp):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


class SetOrderingRule(Rule):
    rule_id = "DET005"
    description = (
        "set-ordering hazard: list()/tuple() over a set, or iterating a "
        "freshly built set — order is hash-dependent; use sorted(...)"
    )
    explanation = (
        "Iteration order of a set depends on insertion history and hash "
        "randomization, so list(set(...)) or a loop over a freshly built "
        "set can process elements in a different order on the next "
        "interpreter run — reordering events, messages, or digests that "
        "the determinism tests compare byte-for-byte.  sorted(...) makes "
        "the order part of the program, not the interpreter."
    )

    def check(self, src: SourceFile) -> Iterator[Finding]:
        if _exempt(src):
            return
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Call):
                if (
                    isinstance(node.func, ast.Name)
                    and node.func.id in ("list", "tuple")
                    and len(node.args) == 1
                    and _is_set_build(node.args[0])
                ):
                    yield self.finding(
                        src, node.lineno, node.col_offset,
                        f"`{node.func.id}(set(...))` order is hash-dependent; "
                        "use sorted(...)",
                    )
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                if _is_set_build(node.iter):
                    yield self.finding(
                        src, node.iter.lineno, node.iter.col_offset,
                        "iteration order over a set is hash-dependent; "
                        "use sorted(...)",
                    )


DETERMINISM_RULES = (
    WallClockRule,
    DatetimeNowRule,
    UnseededRandomRule,
    EnvironReadRule,
    SetOrderingRule,
)
