"""Hot-path cost analysis: interprocedural PERF lint (PERF001–PERF003).

The kernel's cost rules — ``__slots__`` everywhere, an allocation-free
drain loop, instrumentation gated where it is called — are protected
dynamically by the perf-smoke floor, but a floor only trips *after* the
cost has been paid.  This pass makes hot-path cost a statically checked
contract, the same way determinism, taint and races already are:

1. **Reachability.**  A declarative :class:`HotPathManifest` names the
   kernel entry points (the clock's step/drain loop, the call and
   event trigger paths, the host stack's post, the device tx/rx
   datapath, the RoCE verify path) plus the callback- and call-invoked
   functions a static call graph cannot reach (the fabric ``carry``
   hops, ``Process._resume``, a client's reply arrival, a check's
   verdict).  The lint run's one function index
   (:func:`repro.analysis.dataflow.index_functions`, trailing-name call
   resolution) closes those entries into the *hot set*, never leaving
   the manifest's ``hot_packages`` — so the untrusted telemetry /
   sanitizer layers and the systems' protocol code (all of
   ``repro.systems`` but the shared steps of ``systems.common``) are
   outside the contract by construction.

2. **Rules over the hot set.**

   * PERF001 — allocation in the per-event path: comprehensions and
     generator expressions, strings built with ``+``, closures (nested
     ``def`` / ``lambda``).
   * PERF002 — a class instantiated inside a hot function without
     ``__slots__`` (or ``@dataclass(slots=True)``, or ``@record``,
     which always makes a slotted class); exception classes are
     error-path-only and exempt.
   * PERF003 — an instrument/trace emit with an *expensive* argument
     (f-string, method call, comprehension) not gated by a
     ``telemetry``/``profiler``-style ``is not None`` check or a held
     span's identity test (``span is not NULL_SPAN``).  Building
     ``packet.describe()`` for a discarded record is the cost this
     rule sees; the call itself is the other (see below).

   Three rules were retired (ids never reused): PERF004 (a re-looked-up
   bound method, ~15 ns a call), PERF005 (``try``/``except`` in a loop,
   free on CPython 3.11) and PERF006 (a raw ``hashlib`` call, a cost
   that SEC001–SEC003 and the MAC tests leave nothing secret to guard).
   None ever fired on the tree.

The findings are the whole output: nothing is written down.  An
allocation on the hot path is a PERF001 finding until it is fixed or
waived inline with a rationale.  A detached hook is not free even with
cheap arguments — a Python call plus its keyword dict, ~120 ns against
~10 ns for the gate — so per-message paths gate every hook at the call
site, and the contract for that is a spy test, not a rule:
``tests/test_instrument_gate.py`` runs every benchmarked workload shape
detached and asserts zero hook calls.  A hook with cheap arguments stays
allowed ungated in set-up and fault branches, where it keeps its own
check.  The one fact a committed listing used to guard, that every
declared entry point still names a function of the tree, is a tier-1
test
(``tests/test_hotpath.py::test_every_declared_entry_point_resolves_on_the_real_tree``).
"""

from __future__ import annotations

import ast
from typing import Sequence

from repro.analysis.dataflow import (
    MAX_CALL_CANDIDATES,
    FunctionInfo,
    call_name,
    module_under,
    pattern_matches,
)
from repro.analysis.rules import Finding, IndexedRule, finding_at
from repro.analysis.walker import SourceFile, walk_own_body
from repro.sim.record import Record, record

_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
_CLOSURES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
#: The detached span handle: ``if span is not NULL_SPAN:`` gates like
#: ``if telemetry is not None:``.
_NULL_SPAN = "NULL_SPAN"


# ----------------------------------------------------------------------
# Manifest
# ----------------------------------------------------------------------

@record
class HotPathManifest(Record):
    """The declarative hot-path policy for one analysis run.

    *entry_points* are dotted-suffix patterns (``Simulator.step``
    matches ``repro.sim.clock.Simulator.step``).  Callback-dispatched
    functions (``callbacks.append`` targets, ``call_at`` steps) are
    statically unreachable and must be declared here explicitly.
    """

    #: Kernel entry points: reachability roots.
    entry_points: tuple[str, ...] = ()
    #: Reachability never leaves these packages — everything outside is
    #: cold (or covered by its own pass) by construction.
    hot_packages: tuple[str, ...] = ()
    #: Cold reporting/diagnostic helpers: not traversed, not checked.
    exempt_functions: tuple[str, ...] = ()
    #: Trailing names of the instrument/trace tracepoints (PERF003).
    emit_hooks: tuple[str, ...] = ()
    #: Attribute / local-variable names accepted as emit gates: an
    #: ``if <name> is not None:`` (or truthiness test) on one of these
    #: marks its body as gated.
    gate_names: tuple[str, ...] = ()


#: The TNIC policy.  Entry points follow the paper's Figure 2 datapath:
#: host work request -> device tx -> wire -> RoCE rx -> verify -> poll,
#: all riding the simulator's drain loop.
TNIC_MANIFEST = HotPathManifest(
    entry_points=(
        # The event loop itself (every reproduced figure's inner loop).
        "Simulator.step",
        "Simulator.run",
        "Simulator._drain",
        "Simulator.timeout",
        "Simulator.delayed_call",
        # The scheduling primitives and the step of a delayed call.
        "Simulator.call_at",
        "Simulator._push",
        "clock._invoke",
        # Event trigger paths (callback-scheduled, hence declared).
        "Event.succeed",
        "Event.fail",
        "Timeout.__init__",
        # A process wake: one callback (a call at its start) that
        # advances the generator.
        "Process._resume",
        # The steps of ``systems.common``, run from call entries: a
        # client's first step, a reply's arrival (filed on the send),
        # its quorum count, the deadline timer, a check's verdict.
        "Client.begin",
        "Client.start",
        "Client._arrived",
        "Client.received",
        "Client._expire",
        "BroadcastAuthenticator._settle",
        # Host stack: the post.
        "RdmaLibrary.post",
        # Device datapath (tx/rx).
        "TnicDevice.send",
        # The send's stages after the first: steps of the DMA and HMAC
        # calls and the callback on the ACK event, hence declared.
        "_Send._fetched",
        "_Send._attested",
        "_Send._acked",
        "TnicDevice.receive",
        "TnicDevice.poll",
        "TnicDevice.drain",
        "TnicDevice._on_deliver",
        # RoCE transport: tx pump, retransmission-timer step, rx
        # decode (the MAC's ingress handler), verify-then-deliver
        # (the verify call's step, and the lane's step it hands to).
        "RoceKernel._pump_tx",
        "RoceKernel._timer_fired",
        "RoceKernel.ingress",
        "RoceKernel._handle_ack",
        "RoceKernel._handle_data",
        "AttestationKernel._settle",
        "_RxLane._verified",
        # Link layer: per-hop call steps the call graph cannot see.
        "EthernetMac._serialised",
        "EthernetMac.deliver",
        "Link.carry",
        "Fabric.carry",
    ),
    hot_packages=(
        "repro.sim",
        "repro.systems.common",
        "repro.core",
        "repro.stack",
        "repro.roce",
        "repro.net",
        "repro.crypto",
    ),
    exempt_functions=(
        # Diagnostics and cold renderers: never on the per-event path.
        "describe",
        "render",
        "stats",
        "snapshot",
        "to_dict",
        "__repr__",
        "__str__",
        "validate",
    ),
    emit_hooks=(
        "emit",
        "count",
        "gauge_set",
        "observe",
        "span_begin",
        "flight_trigger",
    ),
    gate_names=(
        "telemetry",
        "profiler",
        "traced",
        "span",
        "vspan",
    ),
)


# ----------------------------------------------------------------------
# Class index (PERF002)
# ----------------------------------------------------------------------

@record
class ClassInfo(Record):
    """One class defined in a hot package."""

    qualname: str
    name: str
    module: str
    line: int
    has_slots: bool
    is_exception: bool


def _class_has_slots(node: ast.ClassDef) -> bool:
    for stmt in node.body:
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__slots__":
                return True
    for deco in node.decorator_list:
        name = call_name(deco)
        if name and name.rsplit(".", 1)[-1] == "record":
            return True
        if isinstance(deco, ast.Call):
            name = call_name(deco.func)
            if name and name.rsplit(".", 1)[-1] == "dataclass":
                for kw in deco.keywords:
                    if (
                        kw.arg == "slots"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is True
                    ):
                        return True
    return False


def _class_is_exception(node: ast.ClassDef) -> bool:
    for base in node.bases:
        name = call_name(base) or ""
        tail = name.rsplit(".", 1)[-1]
        if tail in ("BaseException", "Exception") or tail.endswith(
            ("Error", "Exception", "Warning")
        ):
            return True
    return False


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------

class HotPathEngine:
    """Reachability closure + PERF checks over one source set.

    *functions* is the source set's function index; only its functions
    in the manifest's ``hot_packages`` are candidates.  The PERF family's
    pass reports its ``findings``, the tests read its ``reachable``
    table.
    """

    def __init__(
        self,
        sources: Sequence[SourceFile],
        functions: list[FunctionInfo],
        manifest: HotPathManifest = TNIC_MANIFEST,
    ) -> None:
        self.sources = list(sources)
        self.manifest = manifest
        self.functions: list[FunctionInfo] = [
            info
            for info in functions
            if module_under(info.module, manifest.hot_packages)
        ]
        self._by_name: dict[str, list[FunctionInfo]] = {}
        self._by_qualname: dict[str, FunctionInfo] = {}
        for info in self.functions:
            self._by_name.setdefault(info.name, []).append(info)
            self._by_qualname[info.qualname] = info
        self._classes_by_name: dict[str, list[ClassInfo]] = {}
        self._index_classes()
        self._successor_cache: dict[str, tuple[str, ...]] = {}
        #: entry qualname -> every hot function it reaches (inclusive).
        self.reachable: dict[str, tuple[str, ...]] = {}
        self._compute_reachability()
        #: union of all per-entry reachable sets, deterministic order.
        self.hot_functions: tuple[str, ...] = tuple(
            sorted({q for reach in self.reachable.values() for q in reach})
        )
        self.findings: list[Finding] = []
        for qualname in self.hot_functions:
            self._check_function(self._by_qualname[qualname])

    # -- construction --------------------------------------------------
    def _index_classes(self) -> None:
        for src in self.sources:
            if not module_under(src.module, self.manifest.hot_packages):
                continue
            for node in src.tree.body:
                if not isinstance(node, ast.ClassDef):
                    continue
                info = ClassInfo(
                    qualname=f"{src.module}.{node.name}",
                    name=node.name,
                    module=src.module,
                    line=node.lineno,
                    has_slots=_class_has_slots(node),
                    is_exception=_class_is_exception(node),
                )
                self._classes_by_name.setdefault(node.name, []).append(info)

    def _is_exempt(self, qualname: str) -> bool:
        return any(
            pattern_matches(pattern, qualname)
            for pattern in self.manifest.exempt_functions
        )

    def _successors(self, qualname: str) -> tuple[str, ...]:
        cached = self._successor_cache.get(qualname)
        if cached is not None:
            return cached
        info = self._by_qualname[qualname]
        out: set[str] = set()
        for node in walk_own_body(info.node):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node.func)
            if not name:
                continue
            tail = name.rsplit(".", 1)[-1]
            candidates = self._by_name.get(tail, ())
            if not candidates or len(candidates) > MAX_CALL_CANDIDATES:
                continue
            for cand in candidates:
                if not self._is_exempt(cand.qualname):
                    out.add(cand.qualname)
        result = tuple(sorted(out))
        self._successor_cache[qualname] = result
        return result

    def _compute_reachability(self) -> None:
        for pattern in self.manifest.entry_points:
            roots = [
                info.qualname
                for info in self.functions
                if pattern_matches(pattern, info.qualname)
            ]
            for root in roots:
                if root in self.reachable:
                    continue
                seen = {root}
                frontier = [root]
                while frontier:
                    current = frontier.pop()
                    for succ in self._successors(current):
                        if succ not in seen:
                            seen.add(succ)
                            frontier.append(succ)
                self.reachable[root] = tuple(sorted(seen))

    # -- findings helpers ----------------------------------------------
    def _finding(
        self, rule: str, info: FunctionInfo, node: ast.AST, message: str
    ) -> None:
        line = getattr(node, "lineno", info.node.lineno)
        col = getattr(node, "col_offset", 0)
        self.findings.append(finding_at(rule, info.src, line, col, message))

    def _is_gate_expr(self, expr: ast.expr) -> bool:
        if isinstance(expr, ast.Attribute):
            return expr.attr in self.manifest.gate_names
        if isinstance(expr, ast.Name):
            return expr.id in self.manifest.gate_names
        return False

    @staticmethod
    def _is_null(expr: ast.expr) -> bool:
        if isinstance(expr, ast.Constant):
            return expr.value is None
        name = call_name(expr)
        return name is not None and name.rsplit(".", 1)[-1] == _NULL_SPAN

    def _is_gate_test(self, test: ast.expr) -> bool:
        # `X is not None`, `span is not NULL_SPAN`, or a bare truthiness
        # test on a gate name (`if traced:`) — alone or as one operand
        # of an `and`.
        if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
            return any(self._is_gate_test(value) for value in test.values)
        if (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], ast.IsNot)
        ):
            return (self._is_null(test.comparators[0])
                    and self._is_gate_expr(test.left))
        return self._is_gate_expr(test)

    @staticmethod
    def _is_str_operand(expr: ast.expr) -> bool:
        if isinstance(expr, ast.JoinedStr):
            return True
        return isinstance(expr, ast.Constant) and isinstance(expr.value, str)

    def _is_expensive_arg(self, arg: ast.expr) -> bool:
        """Is building *arg* more than attribute loads and Name calls?

        F-strings, method calls (``packet.describe()``), comprehensions
        and string concatenation all allocate; plain names, attributes,
        constants, numeric arithmetic and builtin-style ``len(x)`` calls
        do not (measurably).
        """
        for node in ast.walk(arg):
            if isinstance(node, ast.JoinedStr):
                return True
            if isinstance(node, _COMPREHENSIONS):
                return True
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                return True
            if isinstance(node, ast.BinOp) and (
                self._is_str_operand(node.left) or self._is_str_operand(node.right)
            ):
                return True
        return False

    # -- the per-function walk -----------------------------------------
    def _check_function(self, info: FunctionInfo) -> None:
        def visit(node: ast.AST, gated: bool) -> None:
            if isinstance(node, _CLOSURES):
                kind = "lambda" if isinstance(node, ast.Lambda) else "closure"
                self._finding(
                    "PERF001",
                    info,
                    node,
                    f"{kind} created in hot function {info.qualname} "
                    "(one allocation per event)",
                )
                return  # do not descend into the nested scope

            if isinstance(node, _COMPREHENSIONS):
                self._finding(
                    "PERF001",
                    info,
                    node,
                    f"comprehension allocates in hot function {info.qualname}",
                )
                # fall through: the body may contain calls worth seeing

            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add) and (
                self._is_str_operand(node.left) or self._is_str_operand(node.right)
            ):
                self._finding(
                    "PERF001",
                    info,
                    node,
                    f"string built with + in hot function {info.qualname}; "
                    "precompute it or gate it behind tracing",
                )

            if isinstance(node, ast.Call):
                self._visit_call(node, info, gated)

            if isinstance(node, ast.If):
                child_gated = gated or self._is_gate_test(node.test)
                for stmt in node.body:
                    visit(stmt, child_gated)
                for stmt in node.orelse:
                    visit(stmt, gated)
                return

            for child in ast.iter_child_nodes(node):
                visit(child, gated)

        for stmt in info.node.body:
            visit(stmt, False)

    def _visit_call(
        self, node: ast.Call, info: FunctionInfo, gated: bool
    ) -> None:
        manifest = self.manifest
        name = call_name(node.func)
        if not name:
            return
        tail = name.rsplit(".", 1)[-1]

        # PERF003: expensive argument to an ungated emit hook: an
        # f-string or describe() call is built *before* the hook can
        # bail out.  (The call itself is the spy test's business.)
        if tail in manifest.emit_hooks and not gated:
            args: list[ast.expr] = list(node.args)
            args.extend(kw.value for kw in node.keywords)
            if any(self._is_expensive_arg(arg) for arg in args):
                self._finding(
                    "PERF003",
                    info,
                    node,
                    f"emit hook {tail}() called with an expensive argument "
                    f"in hot function {info.qualname} without a "
                    "telemetry gate; wrap it in "
                    "`if <hub> is not None:`",
                )

        # PERF002: instantiating a __dict__-carrying class per event.
        for cls in self._classes_by_name.get(tail, ()):
            if cls.has_slots or cls.is_exception:
                continue
            self._finding(
                "PERF002",
                info,
                node,
                f"hot function {info.qualname} instantiates {cls.qualname} "
                "which has no __slots__ (per-instance __dict__ on the "
                "per-event path)",
            )


def hotpath_findings(
    sources: Sequence[SourceFile], functions: list[FunctionInfo],
) -> list[Finding]:
    """The PERF family's one pass over *sources*."""
    return HotPathEngine(sources, functions).findings


# ----------------------------------------------------------------------
# Rules
# ----------------------------------------------------------------------

class _HotPathRule(IndexedRule):
    family_pass = staticmethod(hotpath_findings)


class HotAllocationRule(_HotPathRule):
    rule_id = "PERF001"
    description = (
        "Allocation in the per-event hot path (comprehension, +-built "
        "string, or closure) in a function reachable from a kernel "
        "entry point"
    )
    explanation = (
        "Every function reachable from the declared kernel entry points "
        "(the drain loop, event triggers, device tx/rx, the RoCE verify "
        "path) runs once per simulated event, so a single comprehension, "
        "`+`-built string or closure there multiplies by the event count "
        "— the costs the PR 4 fast path removed.  Hoist the allocation, "
        "build strings only under a tracing gate, or waive with a "
        "rationale comment where the allocation is the design (e.g. the "
        "one-closure-per-message completion callback)."
    )


class HotSlotsRule(_HotPathRule):
    rule_id = "PERF002"
    description = (
        "Class instantiated on the hot path without __slots__ "
        "(per-instance __dict__ allocation)"
    )
    explanation = (
        "A class instantiated inside a hot function allocates a "
        "per-instance __dict__ unless it declares __slots__ (directly "
        "or via @dataclass(slots=True)).  The kernel's event classes "
        "all carry __slots__; anything constructed per packet, per ACK "
        "or per event must too.  Exception classes are exempt — they "
        "only allocate on the error path."
    )


class UngatedEmitRule(_HotPathRule):
    rule_id = "PERF003"
    description = (
        "Instrument/trace emit with an expensive argument and no "
        "telemetry gate on the hot path"
    )
    explanation = (
        "A detached instrumentation hook still costs a Python call plus "
        "its keyword dict (~120 ns for `count(sim, name, device=d)`, "
        "against ~10 ns for an `if sim.telemetry is not None` gate), "
        "and its *arguments* are built by the caller first.  Per-message "
        "paths therefore gate every hook at the call site — on "
        "`sim.telemetry is not None` (or `sim.profiler`), a `traced` "
        "flag, or a held span tested by identity "
        "(`span is not NULL_SPAN`) — and tests/test_instrument_gate.py "
        "spies that a detached run of every benchmarked workload shape "
        "calls none.  This rule guards expensive arguments everywhere "
        "on the hot path, cold branches included: an ungated hook with "
        "cheap arguments may stay in set-up or a fault branch, but an "
        "f-string or packet.describe() passed to one is paid on every "
        "pass, tracing or not."
    )


HOTPATH_RULES: tuple[type[_HotPathRule], ...] = (
    HotAllocationRule,
    HotSlotsRule,
    UngatedEmitRule,
)
