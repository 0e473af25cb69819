"""Liveness pass: network-facing deadlines.

TNIC's guarantees stop at the edge of the software around the trusted
NIC: an attested send that never completes silently stalls a replica —
the failure class trusted-component BFT protocols must survive.  This
pass flags network-facing completions that are registered in a pending
map and handed to the caller with no Timeout composed in scope
(``LIV005`` — a dropped response must not stall a replica forever;
``repro.api.rpc.RpcEndpoint.call`` shows the sanctioned deadline
idiom).

The event lifecycle is the kernel's to enforce, at run time: a second
``succeed``/``fail`` of an :class:`repro.sim.events.Event` raises
"already triggered", and ``Simulator.run(event)`` on a wait nothing
triggers raises "ran out of events".  ``LIV002`` (double trigger) and
``LIV003`` (lost wakeup) were retired for that reason, and the
resource-leak rule (a simulator lock held across a ``yield`` without a
``try/finally`` release) when the last lock went: nothing in the tree
acquires anything any more.  Like ``LIV004`` before them, their ids are
never reused (docs/analysis.md lists every retired id).

:data:`TIMEOUT_MARKERS` are the spellings that count as a composed
deadline; :data:`NETWORK_PACKAGES` scopes LIV005 to network-facing
code (``repro.sim`` itself is excluded: the kernel's own waiter
registration would be all false positives).

Like the other project passes this is a lexical over-approximation:
a finding that is not a stall is waived inline with a rationale
comment, never silently baselined.
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
from repro.analysis.walker import SourceFile, chain_parts, walk_own_body

#: Spellings that count as a composed deadline on a wait.
TIMEOUT_MARKERS = frozenset({
    "timeout", "delayed_call", "Timeout", "AnyOf", "any_of",
})

#: Packages whose completions face the network/device (LIV005 scope).
NETWORK_PACKAGES = (
    "repro.roce", "repro.net", "repro.core", "repro.stack",
    "repro.api", "repro.systems",
)


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


LIVENESS_RULES = (UnboundedNetworkWaitRule,)

