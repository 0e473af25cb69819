"""Liveness pass: resource lifecycle and network-facing deadlines.

TNIC's guarantees stop at the edge of the software around the trusted
NIC: an attested send that never completes or a leaked HMAC-pipeline
occupancy silently stalls a replica — the failure class
trusted-component BFT protocols must survive.  This pass
abstract-interprets every ``repro.sim`` process generator for the
resource lifecycle: every ``acquire()``/``request()`` must be matched
by a release on *every* path.
Exceptions are delivered into processes at ``yield`` points, so a
resource held across a yield must release in a ``try/finally``
(``LIV001``).

On top of the per-process scan the pass flags network-facing
completions that are registered in a pending map and handed to the
caller with no Timeout composed in scope (``LIV005`` — a dropped
response must not stall a replica forever;
``repro.api.rpc.RpcEndpoint.call`` shows the sanctioned deadline
idiom).

The event lifecycle is the kernel's to enforce, at run time: a second
``succeed``/``fail`` of an :class:`repro.sim.events.Event` raises
"already triggered", and ``Simulator.run(event)`` on a wait nothing
triggers raises "ran out of events".  ``LIV002`` (double trigger) and
``LIV003`` (lost wakeup) were retired for that reason; like ``LIV004``
before them, their ids are never reused.

Lifecycle vocabulary (the declarative manifest the rules interpret):

* :data:`ACQUIRE_VERBS` maps each acquire verb to its release verb;
  receiver chains are matched through local aliases, so ``lock =
  self.lock`` followed by ``lock.release()`` pairs with
  ``self.lock.acquire()``.
* :data:`SELF_RELEASING` lists occupancy helpers that leave the caller
  nothing to release
  (:meth:`repro.crypto.hmac_engine.HmacEngine.occupy` queues on an
  analytic FIFO server, :class:`repro.sim.resources.SerialServer`: the
  busy span is computed at submission and no lock is ever held), so
  their call sites carry no release obligation.
* :data:`TIMEOUT_MARKERS` are the spellings that count as a composed
  deadline; :data:`NETWORK_PACKAGES` scopes LIV005 to network-facing
  code (``repro.sim`` itself is excluded: the kernel's own waiter
  registration would be all false positives).

Like the other project passes this is a lexical over-approximation:
acquire-only helpers whose caller owns the release are waived inline
with a rationale comment, never silently baselined.
"""

from __future__ import annotations

import ast
from typing import Sequence

from repro.analysis.dataflow import (
    FunctionInfo,
    _function_params,
    call_name,
    module_under,
)
from repro.analysis.determinism import _exempt
from repro.analysis.rules import Finding, IndexedRule, finding_at
from repro.analysis.walker import (
    SourceFile,
    chain_parts,
    is_generator,
    local_aliases,
    walk_own_body,
)

#: acquire verb -> the release verb that discharges it (same receiver).
ACQUIRE_VERBS: dict[str, str] = {
    "acquire": "release",
    "request": "release",
}

#: Occupancy helpers that hold no lock (HmacEngine.occupy computes the
#: busy span on a SerialServer at submission), so call sites carry no
#: release obligation of their own.
SELF_RELEASING = frozenset({"occupy"})

#: Spellings that count as a composed deadline on a wait.
TIMEOUT_MARKERS = frozenset({
    "timeout", "delayed_call", "Timeout", "AnyOf", "any_of",
})

#: Packages whose completions face the network/device (LIV005 scope).
NETWORK_PACKAGES = (
    "repro.roce", "repro.net", "repro.core", "repro.stack",
    "repro.api", "repro.systems",
)

_RELEASE_VERBS = frozenset(ACQUIRE_VERBS.values())


def _receiver_chain(
    call: ast.Call, aliases: dict[str, tuple[str, ...]],
) -> tuple[str, ...] | None:
    """Receiver of ``a.b.verb()`` as ``("a", "b")``, through aliases."""
    if not isinstance(call.func, ast.Attribute):
        return None
    parts = chain_parts(call.func.value)
    if parts is None:
        return None
    if parts[0] in aliases:
        return ("self", *aliases[parts[0]], *parts[1:])
    return tuple(parts)


def _event_locals(func: ast.AST) -> dict[str, ast.Call]:
    """Locals bound from ``<chain>.event()`` or ``Event(...)``."""
    out: dict[str, ast.Call] = {}
    for node in walk_own_body(func):
        if (isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)):
            tail = (call_name(node.value.func) or "").rsplit(".", 1)[-1]
            zero_arg = not node.value.args and not node.value.keywords
            if (tail == "event" and zero_arg) or tail == "Event":
                out[node.targets[0].id] = node.value
    return out


def _contains_name(node: ast.AST | None, name: str) -> bool:
    if node is None:
        return False
    return any(
        isinstance(sub, ast.Name) and sub.id == name
        for sub in ast.walk(node)
    )


def _has_timeout_marker(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr in TIMEOUT_MARKERS:
            return True
        if isinstance(sub, ast.Name) and sub.id in TIMEOUT_MARKERS:
            return True
    return False


class LivenessEngine:
    """Lifecycle analysis over one function index."""

    def __init__(self, functions: list[FunctionInfo]) -> None:
        self.functions = [fn for fn in functions if not _exempt(fn.src)]
        self.findings: list[Finding] = []
        # Nested defs (sim.process(worker()) workers, completion closures)
        # are scan units too.
        for fn in self.functions + self._nested_functions():
            if module_under(fn.module, NETWORK_PACKAGES):
                self._scan_unbounded_completion(fn)
            if is_generator(fn.node):
                self._scan_resource_lifecycle(fn, local_aliases(fn.node))
        self.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule,
                                          f.message))

    def _nested_functions(self) -> list[FunctionInfo]:
        """Scan units for defs nested inside indexed functions."""
        indexed = {id(fn.node) for fn in self.functions}
        nested: list[FunctionInfo] = []
        for fn in self.functions:
            for node in ast.walk(fn.node):
                if (not isinstance(node, (ast.FunctionDef,
                                          ast.AsyncFunctionDef))
                        or id(node) in indexed or node is fn.node):
                    continue
                params, vararg = _function_params(node)
                nested.append(FunctionInfo(
                    qualname=f"{fn.qualname}.{node.name}", module=fn.module,
                    name=node.name, params=params, vararg=vararg,
                    is_method=False, node=node, src=fn.src,
                ))
        return nested

    # ------------------------------------------------------------------
    # LIV001: resource leak / release-outside-finally
    # ------------------------------------------------------------------
    @staticmethod
    def _lifecycle_sites(fn: FunctionInfo, aliases: dict[str, tuple[str, ...]]):
        acquires: list[tuple[int, int, tuple[str, ...], str]] = []
        releases: list[tuple[int, tuple[str, ...], str]] = []
        yields: list[ast.AST] = []
        for node in walk_own_body(fn.node):
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                yields.append(node)
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                verb = node.func.attr
                chain = None
                if verb in ACQUIRE_VERBS or verb in _RELEASE_VERBS:
                    chain = _receiver_chain(node, aliases)
                if chain is None:
                    continue
                if verb in ACQUIRE_VERBS:
                    acquires.append(
                        (node.lineno, node.col_offset, chain, verb))
                if verb in _RELEASE_VERBS:
                    releases.append((node.lineno, chain, verb))
        return acquires, releases, yields

    @staticmethod
    def _covered_yield_lines(
        fn: FunctionInfo, aliases: dict[str, tuple[str, ...]],
        chain: tuple[str, ...], release_verb: str,
    ) -> set[int]:
        """Yield linenos protected by a try/finally releasing *chain*."""
        covered: set[int] = set()
        for node in walk_own_body(fn.node):
            if not isinstance(node, ast.Try):
                continue
            releases_here = any(
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr == release_verb
                and _receiver_chain(sub, aliases) == chain
                for stmt in node.finalbody for sub in ast.walk(stmt)
            )
            if not releases_here:
                continue
            for stmt in (*node.body, *node.handlers, *node.orelse):
                for sub in ast.walk(stmt):
                    if isinstance(sub, (ast.Yield, ast.YieldFrom)):
                        covered.add(sub.lineno)
        return covered

    def _scan_resource_lifecycle(
        self, fn: FunctionInfo, aliases: dict[str, tuple[str, ...]],
    ) -> None:
        acquires, releases, yields = self._lifecycle_sites(fn, aliases)
        for line, col, chain, verb in acquires:
            release_verb = ACQUIRE_VERBS[verb]
            chain_str = ".".join(chain)
            matching = [
                r for r in releases if r[1] == chain and r[2] == release_verb
            ]
            if not matching:
                self.findings.append(finding_at(
                    "LIV001", fn.src, line, col,
                    f"in `{fn.display}`: `{chain_str}.{verb}()` is never "
                    f"released (`{chain_str}.{release_verb}()` not found on "
                    "any path); every later waiter stalls forever",
                ))
                continue
            after = [r[0] for r in matching if r[0] > line]
            first_release = min(after) if after else float("inf")
            covered = self._covered_yield_lines(fn, aliases, chain, release_verb)
            exposed = sorted(
                y.lineno for y in yields
                if line < y.lineno < first_release and y.lineno not in covered
            )
            if exposed:
                self.findings.append(finding_at(
                    "LIV001", fn.src, line, col,
                    f"in `{fn.display}`: `{chain_str}.{verb}()` is held "
                    f"across `yield` at line {exposed[0]} but "
                    f"`{chain_str}.{release_verb}()` is outside try/finally; "
                    "an exception delivered at that yield leaks the resource",
                ))

    # ------------------------------------------------------------------
    # LIV005: unbounded network-facing waits
    # ------------------------------------------------------------------
    def _scan_unbounded_completion(self, fn: FunctionInfo) -> None:
        events = _event_locals(fn.node)
        if not events or _has_timeout_marker(fn.node):
            return
        for name in sorted(events):
            stored_line = None
            returned = False
            for node in ast.walk(fn.node):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        if not isinstance(
                                target, (ast.Attribute, ast.Subscript)):
                            continue
                        base = (target.value
                                if isinstance(target, ast.Subscript)
                                else target)
                        parts = chain_parts(base)
                        if (parts and parts[0] in ("self", "cls")
                                and _contains_name(node.value, name)):
                            stored_line = stored_line or node.lineno
                if isinstance(node, ast.Return) and _contains_name(
                        node.value, name):
                    returned = True
            if stored_line is not None and returned:
                creation = events[name]
                self.findings.append(finding_at(
                    "LIV005", fn.src, creation.lineno, creation.col_offset,
                    f"in `{fn.display}`: completion event `{name}` is "
                    "registered for a remote response and returned to the "
                    "caller with no deadline composed; a dropped response "
                    "stalls the waiter forever — add a sim.delayed_call "
                    "expiry (see repro.api.rpc.RpcEndpoint.call)",
                ))


def liveness_findings(
    sources: Sequence[SourceFile], functions: list[FunctionInfo],
) -> list[Finding]:
    """The LIV family's one pass over the function index of *sources*."""
    return LivenessEngine(functions).findings


# ----------------------------------------------------------------------
# Rules
# ----------------------------------------------------------------------

class _LivenessRule(IndexedRule):
    family_pass = staticmethod(liveness_findings)


class ResourceLeakRule(_LivenessRule):
    rule_id = "LIV001"
    description = (
        "resource acquired with a path (including exception paths) that "
        "never releases it"
    )
    explanation = (
        "A simulator process acquires a Resource (acquire/request) "
        "but some path never reaches the matching "
        "release.  Exceptions are delivered into processes at yield "
        "points, so a resource held across a yield must release in a "
        "try/finally; a plain release after the yield is skipped when "
        "the yield raises, and a capacity-1 resource then starves every "
        "later waiter — the whole pipeline behind it stalls silently.  "
        "Wrap the held span in try/finally, or "
        "waive acquire-only helpers whose caller owns the release "
        "inline with a rationale comment.  Calls in "
        "SELF_RELEASING (HmacEngine.occupy) carry no obligation: the "
        "analytic server behind them holds no lock."
    )


class UnboundedNetworkWaitRule(_LivenessRule):
    rule_id = "LIV005"
    description = (
        "unbounded wait on a network-facing completion with no Timeout "
        "composed in scope"
    )
    explanation = (
        "Network-facing code (repro.roce/net/core/stack/api/systems) "
        "must never wait on a remote completion without a deadline: "
        "packets drop, peers crash, and TNIC's own retransmission "
        "machinery exists precisely because the fabric is lossy.  The "
        "flagged shape is a completion event registered in a pending "
        "map and returned to the caller with no sim.delayed_call/timeout "
        "expiry in scope (fix like RpcEndpoint.call)."
    )


LIVENESS_RULES = (
    ResourceLeakRule,
    UnboundedNetworkWaitRule,
)

