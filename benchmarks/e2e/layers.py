"""Boundary spans and the per-layer ledger (traced pass only).

The program is measured from outside: :class:`Patcher` replaces each
layer's public entry points with timing wrappers for the lifetime of a
traced subprocess and puts the originals back afterwards.  Every call
through a wrapped boundary becomes one span — name, layer, start, end
and the span that was open when it began — kept in memory in columnar
arrays.  A layer's *self time* is the duration of its spans minus the
parts their child spans cover, so the layers of one repetition sum to
the repetition's own span exactly.

Boundaries (``LAYERS`` order is the reporting order):

* root — one ``rep`` span per repetition, opened by the driver.
* ``sim`` — ``Simulator.run`` (scheduler plus unwrapped callbacks) and
  ``Simulator.process``, which hands the kernel a proxy around the
  generator so that every resume is a span owned by the package the
  generator's code lives in.
* the methods and functions listed in ``METHODS`` and ``FUNCTIONS``.

This module must never be imported by the untraced pass; ``run.py``
checks that.
"""

from __future__ import annotations

import statistics
import sys
import time
from array import array
from typing import Any, Callable

LAYERS = ("sim", "systems", "tee", "core", "crypto", "api", "stack", "roce", "net")
#: The benchmark's own code (the ``rep`` span's self time).
DRIVER = "driver"

#: ``layer -> [(module, class, [method, ...])]``
METHODS = {
    "sim": [("repro.sim.clock", "Simulator", ["run"])],
    "systems": [
        ("repro.systems.common", "EmulatedNetwork", ["send"]),
        ("repro.systems.common", "BroadcastAuthenticator", ["verify"]),
    ],
    "tee": [
        ("repro.tee.base", "AttestationProvider",
         ["attest", "verify", "check_transferable"]),
    ],
    "core": [
        ("repro.core.attestation", "AttestationKernel",
         ["attest", "verify", "check_transferable", "attest_event", "verify_event"]),
        ("repro.core.device", "TnicDevice",
         ["send", "receive", "local_attest", "local_verify"]),
    ],
    "api": [("repro.api.connection", "IbvConnection", ["stage"])],
    "stack": [
        ("repro.stack.rdma_lib", "RdmaLibrary", ["post", "poll", "receive"]),
        ("repro.stack.rdma_lib", "MemoryTable", ["dma_read", "dma_write"]),
    ],
    "roce": [("repro.roce.transport", "RoceKernel", ["post_send"])],
    "net": [
        ("repro.net.fabric", "Fabric", ["carry"]),
        ("repro.net.fabric", "Link", ["carry"]),
    ],
}

#: ``layer -> [(defining module, function)]`` — imported by name across
#: the tree, so every ``repro.*`` global that *is* the function is swapped.
FUNCTIONS = {
    "crypto": [
        ("repro.crypto.hmac_engine", "hmac_sha256"),
        ("repro.crypto.hmac_engine", "hmac_verify"),
        ("repro.crypto.hmac_engine", "batch_verify"),
        ("repro.crypto.hashing", "sha256"),
        ("repro.crypto.hashing", "canonical_bytes"),
    ],
    "api": [("repro.api.ops", "auth_send"), ("repro.api.ops", "recv")],
}

_MARK = "__e2e_span_wrapper__"


class Tracer:
    """In-memory span store for one repetition at a time."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        #: Span-name table: ``names[i]`` is owned by ``layers[i]``.
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[tuple[str, str], int] = {}
        # One entry per span, in start order.
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        #: Index of the innermost open span, -1 outside any, and its layer.
        self.current = -1
        self.layer: str | None = None

    def name(self, layer: str, name: str) -> int:
        key = (layer, name)
        index = self._ids.get(key)
        if index is None:
            index = self._ids[key] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return index

    def reset(self) -> None:
        """Drop recorded spans in place (wrappers hold the arrays)."""
        for column in (self.name_id, self.parent, self.start, self.end):
            del column[:]
        self.current = -1
        self.layer = None

    def wrap(self, fn: Callable, layer: str, name: str) -> Callable:
        """*fn* with a span around every call that enters *layer*.

        A call made while a span of the same layer is already innermost
        crosses no boundary and would not change any layer's self time,
        so it runs bare: ``calls`` counts entries into a layer.
        """
        layer = sys.intern(layer)  # the wrapper compares layers by identity
        name_id = self.name(layer, name)
        names, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        clock = self.clock
        tracer = self

        def span_wrapper(*args, **kwargs):
            outer = tracer.layer
            if outer is layer:
                return fn(*args, **kwargs)
            index = len(starts)
            names.append(name_id)
            parents.append(tracer.current)
            ends.append(0)
            tracer.current = index
            tracer.layer = layer
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                tracer.current = parents[index]
                tracer.layer = outer

        setattr(span_wrapper, _MARK, fn)
        return span_wrapper

    # ------------------------------------------------------------------
    def _rep_extent(self) -> int:
        """Number of leading spans that belong to the ``rep`` span.

        Span 0 is the driver's ``rep`` span; the first later span with
        no parent started after it closed (the oracle's own calls)."""
        parent = self.parent
        for index in range(1, len(parent)):
            if parent[index] < 0:
                return index
        return len(parent)

    def ledger(self) -> dict[str, Any]:
        """Per-layer calls and self time of the recorded repetition.

        Children always have higher indices than their parents, so one
        backwards pass has every child's duration subtracted before its
        parent is read.
        """
        count = self._rep_extent()
        covered = [0] * count
        calls: dict[str, int] = {}
        self_ns: dict[str, int] = {}
        resumes = 0
        run_self_ns = 0
        layers = self.layers
        is_resume = [name.startswith("resume:") for name in self.names]
        run_id = self._ids.get(("sim", "Simulator.run"))
        name_ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        for index in range(count - 1, -1, -1):
            duration = ends[index] - starts[index]
            if index:
                covered[parents[index]] += duration
            name_id = name_ids[index]
            layer = layers[name_id]
            own = duration - covered[index]
            calls[layer] = calls.get(layer, 0) + 1
            self_ns[layer] = self_ns.get(layer, 0) + own
            if is_resume[name_id]:
                resumes += 1
            elif name_id == run_id:
                run_self_ns += own
        return {
            "total_ns": ends[0] - starts[0],
            "calls": calls,
            "self_ns": self_ns,
            "resumes": resumes,
            "run_self_ns": run_self_ns,
        }

    def spans(self) -> dict[str, Any]:
        """Columnar dump of the recorded repetition (see README)."""
        count = self._rep_extent()
        origin = self.start[0]
        return {
            "names": list(self.names),
            "layers": list(self.layers),
            "name_id": self.name_id[:count].tolist(),
            "parent": self.parent[:count].tolist(),
            "start_ns": [value - origin for value in self.start[:count]],
            "end_ns": [value - origin for value in self.end[:count]],
        }


def _layer_of(filename: str) -> str:
    """Package under ``repro/`` that *filename* belongs to."""
    parts = filename.replace("\\", "/").split("/")
    # Innermost ``repro/<package>/<file>``; the checkout's own path may
    # hold a directory of that name further out.
    for index in range(len(parts) - 3, -1, -1):
        if parts[index] == "repro":
            return parts[index + 1]
    return DRIVER


class _ResumeProxy:
    """Stands in for a process generator; every resume is a span.

    Forwards ``send``/``throw``/``close`` and the generator's return
    value (``StopIteration.value``) unchanged.
    """

    def __init__(self, generator, tracer: Tracer) -> None:
        code = generator.gi_code
        name = f"resume:{code.co_qualname}"
        layer = _layer_of(code.co_filename)
        self.gi_code = code
        self.__qualname__ = code.co_qualname
        self.send = tracer.wrap(generator.send, layer, name)
        self.throw = tracer.wrap(generator.throw, layer, name)
        self.close = generator.close


class Patcher:
    """Installs the wrappers and restores the originals."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        #: ``(owner, attribute, original)`` for every replacement made.
        self._undo: list[tuple[Any, str, Any]] = []

    def _replace(self, owner: Any, attribute: str, wrapper: Any) -> None:
        self._undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, wrapper)

    def install(self, extra_modules: tuple = ()) -> None:
        """Wrap every boundary.  *extra_modules* are benchmark modules
        whose globals may also hold a patched function."""
        if self._undo:
            raise RuntimeError("wrappers already installed")
        tracer = self.tracer
        for layer, entries in METHODS.items():
            for module_name, class_name, methods in entries:
                cls = getattr(sys.modules[module_name], class_name)
                for method in methods:
                    self._replace(cls, method, tracer.wrap(
                        cls.__dict__[method], layer, f"{class_name}.{method}"))
        modules = [
            module for name, module in sorted(sys.modules.items())
            if module is not None and (name == "repro" or name.startswith("repro."))
        ] + list(extra_modules)
        for layer, entries in FUNCTIONS.items():
            for module_name, function in entries:
                original = getattr(sys.modules[module_name], function)
                wrapper = tracer.wrap(original, layer, function)
                for module in modules:
                    for attribute, value in list(vars(module).items()):
                        if value is original:
                            self._replace(module, attribute, wrapper)
        simulator = sys.modules["repro.sim.clock"].Simulator
        original_process = simulator.__dict__["process"]

        def process(sim, generator):
            if hasattr(generator, "gi_code"):
                generator = _ResumeProxy(generator, tracer)
            return original_process(sim, generator)

        self._replace(simulator, "process",
                      tracer.wrap(process, "sim", "Simulator.process"))

    def restore(self) -> None:
        """Put every original back and check nothing wrapped is left."""
        for owner, attribute, original in reversed(self._undo):
            setattr(owner, attribute, original)
        self._undo.clear()
        leftovers = [
            f"{name}.{attribute}"
            for name, module in sys.modules.items()
            if module is not None and (name == "repro" or name.startswith("repro."))
            for attribute, value in vars(module).items()
            if hasattr(value, _MARK) or any(
                hasattr(member, _MARK)
                for member in (vars(value).values() if isinstance(value, type) else ())
            )
        ]
        if leftovers:
            raise AssertionError(f"wrappers left installed: {leftovers}")


# ----------------------------------------------------------------------
# Direct probes: timed loops on single layer functions
# ----------------------------------------------------------------------
def _median_us_per_call(loop: Callable[[], int], batches: int = 5) -> float:
    """Median over *batches* of ``loop()``'s wall time per call it made."""
    samples = []
    for _ in range(batches):
        start = time.perf_counter()
        calls = loop()
        samples.append((time.perf_counter() - start) / calls * 1e6)
    return statistics.median(samples)


def run_probes(scale: float) -> dict[str, float]:
    """The ``*.probe_*`` metrics.  Call before :meth:`Patcher.install`:
    the names bound here must be the program's own functions."""
    from repro.core.attestation import AttestationKernel
    from repro.crypto.hashing import canonical_bytes
    from repro.crypto.hmac_engine import hmac_sha256, hmac_verify
    from repro.sim.clock import Simulator

    key = b"k" * 32
    small, large = b"s" * 64, b"l" * (16 * 1024)
    calls = max(50, round(2000 * scale))
    #: Every batch draws counters no earlier call used, as attestation
    #: does, so the canonical-encoding memo never answers.
    batch = iter(range(1, 10**9))

    def hmac_loop(payload: bytes, count: int) -> Callable[[], int]:
        def loop() -> int:
            base = next(batch) * 10**6
            for counter in range(base, base + count):
                hmac_sha256(key, payload, counter, 1, 1)
            return count
        return loop

    def canonical_loop() -> int:
        base = next(batch) * 10**6
        for counter in range(base, base + calls):
            canonical_bytes((small, counter, 1, 1))
        return calls

    mac = hmac_sha256(key, small, 0, 1, 1)
    hmac_verify(key, mac, small, 0, 1, 1)  # fill the cache entry

    def verify_hit_loop() -> int:
        for _ in range(calls):
            hmac_verify(key, mac, small, 0, 1, 1)
        return calls

    sender, receiver = AttestationKernel(1), AttestationKernel(2)
    sender.install_session(1, key)
    receiver.install_session(1, key)

    def attest_verify_loop() -> int:
        for _ in range(calls):
            receiver.verify(1, sender.attest(1, small))
        return calls

    procs, steps = 100, max(20, round(2000 * scale))

    def chain_keps(bare: bool) -> float:
        """k events/s of one process-chain program, driven either way
        (median of three)."""
        samples = []
        for _ in range(3):
            sim = Simulator()

            def worker():
                for _ in range(steps):
                    yield sim.timeout(1.0)

            done = sim.all_of([sim.process(worker()) for _ in range(procs)])
            start = time.perf_counter()
            if bare:
                sim.run()
            else:
                sim.run(done)
            samples.append(procs * steps / (time.perf_counter() - start) / 1e3)
        return statistics.median(samples)

    return {
        "sim.probe_run_until_event_keps": chain_keps(bare=False),
        "sim.probe_run_bare_keps": chain_keps(bare=True),
        "crypto.probe_hmac_64B_us": _median_us_per_call(hmac_loop(small, calls)),
        "crypto.probe_hmac_16KiB_us": _median_us_per_call(
            hmac_loop(large, max(20, calls // 8))),
        "crypto.probe_verify_hit_us": _median_us_per_call(verify_hit_loop),
        "crypto.probe_canonical_us": _median_us_per_call(canonical_loop),
        "core.probe_attest_verify_us": _median_us_per_call(attest_verify_loop),
    }
