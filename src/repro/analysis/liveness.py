"""Liveness pass: resource lifecycle and event lifecycle.

TNIC's guarantees stop at the edge of the software around the trusted
NIC: an attested send that never completes, a leaked HMAC-pipeline
occupancy, or a wait whose trigger was lost silently stalls a replica —
the failure class trusted-component BFT protocols must survive.  This
pass abstract-interprets every ``repro.sim`` process generator for the
two lifecycles that keep the simulation live:

* **resource lifecycle** — every ``acquire()``/``request()``/
  ``exclusive_regs()`` must be matched by a release on *every* path.
  Exceptions are delivered into processes at ``yield`` points, so a
  resource held across a yield must release in a ``try/finally``
  (``LIV001``).
* **event lifecycle** — :class:`repro.sim.events.Event` is one-shot:
  a second ``succeed``/``fail`` raises ``RuntimeError`` (``LIV002``),
  and an event that is yielded but has no reachable trigger site in the
  closed call graph is a lost wakeup (``LIV003``).

On top of the per-process scan the pass flags network-facing
completions that are registered in a pending map and handed to the
caller with no Timeout composed in scope (``LIV005`` — a dropped
response must not stall a replica forever;
``repro.api.rpc.RpcEndpoint.call`` shows the sanctioned deadline
idiom).  Rule ids are stable, not renumbered: the family has no fourth
rule.

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
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.analysis.dataflow import (
    MAX_CALL_CANDIDATES,
    FunctionInfo,
    call_name,
    index_functions,
    module_under,
)
from repro.analysis.determinism import _exempt
from repro.analysis.rules import Finding, ProjectRule
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
    "exclusive_regs": "release_regs",
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

#: Container verbs through which an event escapes to another owner.
_ESCAPE_METHODS = frozenset({"append", "put", "add", "setdefault", "push"})

_RELEASE_VERBS = frozenset(ACQUIRE_VERBS.values())
_TERMINATORS = (ast.Return, ast.Raise, ast.Break, ast.Continue)


@dataclass
class Hit:
    """One raw engine finding (pre-suppression), owned by a rule id."""

    rule_id: str
    src: SourceFile
    line: int
    col: int
    message: str


@dataclass
class _FnScan:
    """Per-function precomputation shared by the rule scans."""

    fn: FunctionInfo
    aliases: dict[str, tuple[str, ...]]
    parents: dict[int, ast.AST] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for parent in ast.walk(self.fn.node):
            for child in ast.iter_child_nodes(parent):
                self.parents[id(child)] = parent

    def ancestors(self, node: ast.AST) -> list[ast.AST]:
        out: list[ast.AST] = []
        cur = node
        while id(cur) in self.parents:
            cur = self.parents[id(cur)]
            out.append(cur)
            if cur is self.fn.node:
                break
        return out


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
    """Lifecycle analysis over one source set (built once, shared)."""

    def __init__(self, sources: Sequence[SourceFile]) -> None:
        self.sources = [src for src in sources if not _exempt(src)]
        self.functions = index_functions(self.sources)
        self.by_name: dict[str, list[FunctionInfo]] = {}
        for fn in self.functions:
            self.by_name.setdefault(fn.name, []).append(fn)
        self.hits: list[Hit] = []
        self._trigger_params = self._solve_trigger_params()
        # Nested defs (sim.process(worker()) workers, completion closures)
        # are scan units too, but stay out of by_name: trailing-name call
        # resolution must not bind to closures it cannot actually reach.
        self.scan_functions = self.functions + self._nested_functions()
        for fn in self.scan_functions:
            scan = _FnScan(fn, local_aliases(fn.node))
            self._scan_event_exclusivity(scan)
            if module_under(fn.module, NETWORK_PACKAGES):
                self._scan_unbounded_completion(scan)
            if is_generator(fn.node):
                self._scan_resource_lifecycle(scan)
                self._scan_lost_wakeup(scan)
        self.hits.sort(key=lambda h: (str(h.src.path), h.line, h.col,
                                      h.rule_id, h.message))

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
                args = node.args
                params = tuple(
                    p.arg for p in (*args.posonlyargs, *args.args,
                                    *args.kwonlyargs))
                nested.append(FunctionInfo(
                    qualname=f"{fn.qualname}.{node.name}", module=fn.module,
                    name=node.name, params=params,
                    vararg=args.vararg.arg if args.vararg else None,
                    is_method=False, node=node, src=fn.src,
                ))
        return nested

    # ------------------------------------------------------------------
    # LIV001: resource leak / release-outside-finally
    # ------------------------------------------------------------------
    def _lifecycle_sites(self, scan: _FnScan):
        acquires: list[tuple[int, int, tuple[str, ...], str]] = []
        releases: list[tuple[int, tuple[str, ...], str]] = []
        yields: list[ast.AST] = []
        for node in walk_own_body(scan.fn.node):
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                yields.append(node)
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                verb = node.func.attr
                chain = None
                if verb in ACQUIRE_VERBS or verb in _RELEASE_VERBS:
                    chain = _receiver_chain(node, scan.aliases)
                if chain is None:
                    continue
                if verb in ACQUIRE_VERBS:
                    acquires.append(
                        (node.lineno, node.col_offset, chain, verb))
                if verb in _RELEASE_VERBS:
                    releases.append((node.lineno, chain, verb))
        return acquires, releases, yields

    def _covered_yield_lines(
        self, scan: _FnScan, chain: tuple[str, ...], release_verb: str,
    ) -> set[int]:
        """Yield linenos protected by a try/finally releasing *chain*."""
        covered: set[int] = set()
        for node in walk_own_body(scan.fn.node):
            if not isinstance(node, ast.Try):
                continue
            releases_here = any(
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr == release_verb
                and _receiver_chain(sub, scan.aliases) == chain
                for stmt in node.finalbody for sub in ast.walk(stmt)
            )
            if not releases_here:
                continue
            for stmt in (*node.body, *node.handlers, *node.orelse):
                for sub in ast.walk(stmt):
                    if isinstance(sub, (ast.Yield, ast.YieldFrom)):
                        covered.add(sub.lineno)
        return covered

    def _scan_resource_lifecycle(self, scan: _FnScan) -> None:
        fn = scan.fn
        acquires, releases, yields = self._lifecycle_sites(scan)
        for line, col, chain, verb in acquires:
            release_verb = ACQUIRE_VERBS[verb]
            chain_str = ".".join(chain)
            matching = [
                r for r in releases if r[1] == chain and r[2] == release_verb
            ]
            if not matching:
                self.hits.append(Hit(
                    "LIV001", fn.src, line, col,
                    f"in `{fn.display}`: `{chain_str}.{verb}()` is never "
                    f"released (`{chain_str}.{release_verb}()` not found on "
                    "any path); every later waiter stalls forever",
                ))
                continue
            after = [r[0] for r in matching if r[0] > line]
            first_release = min(after) if after else float("inf")
            covered = self._covered_yield_lines(scan, chain, release_verb)
            exposed = sorted(
                y.lineno for y in yields
                if line < y.lineno < first_release and y.lineno not in covered
            )
            if exposed:
                self.hits.append(Hit(
                    "LIV001", fn.src, line, col,
                    f"in `{fn.display}`: `{chain_str}.{verb}()` is held "
                    f"across `yield` at line {exposed[0]} but "
                    f"`{chain_str}.{release_verb}()` is outside try/finally; "
                    "an exception delivered at that yield leaks the resource",
                ))

    # ------------------------------------------------------------------
    # LIV002: double trigger
    # ------------------------------------------------------------------
    def _scan_event_exclusivity(self, scan: _FnScan) -> None:
        fn = scan.fn
        events = _event_locals(fn.node)
        if not events:
            return
        triggers: dict[str, list[ast.Call]] = {}
        for node in ast.walk(fn.node):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("succeed", "fail")
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in events):
                triggers.setdefault(node.func.value.id, []).append(node)
        for name in sorted(triggers):
            sites = sorted(
                (t for t in triggers[name]
                 if not self._guarded_by_triggered(scan, t, name)),
                key=lambda t: (t.lineno, t.col_offset),
            )
            hit = self._loop_retrigger(scan, sites, events[name])
            if hit is None and len(sites) >= 2:
                hit = self._non_exclusive_pair(scan, sites, name)
            if hit is not None:
                self.hits.append(Hit("LIV002", fn.src, *hit))

    def _guarded_by_triggered(
        self, scan: _FnScan, node: ast.AST, name: str,
    ) -> bool:
        for anc in scan.ancestors(node):
            if isinstance(anc, ast.If) and any(
                isinstance(sub, ast.Attribute) and sub.attr == "triggered"
                and isinstance(sub.value, ast.Name) and sub.value.id == name
                for sub in ast.walk(anc.test)
            ):
                return True
        return False

    def _loop_retrigger(
        self, scan: _FnScan, sites: list[ast.Call], creation: ast.Call,
    ) -> tuple[int, int, str] | None:
        creation_ancestors = {id(a) for a in scan.ancestors(creation)}
        for site in sites:
            for anc in scan.ancestors(site):
                if not isinstance(anc, (ast.For, ast.While)):
                    continue
                if id(anc) in creation_ancestors:
                    continue  # event re-created each iteration
                name = site.func.value.id  # type: ignore[union-attr]
                return (
                    site.lineno, site.col_offset,
                    f"in `{scan.fn.display}`: event `{name}` is triggered "
                    f"inside a loop at line {site.lineno} but created "
                    "outside it; the second iteration re-triggers a "
                    "consumed event (RuntimeError) — guard with "
                    "`.triggered` or create the event per iteration",
                )
        return None

    def _non_exclusive_pair(
        self, scan: _FnScan, sites: list[ast.Call], name: str,
    ) -> tuple[int, int, str] | None:
        for i, a in enumerate(sites):
            for b in sites[i + 1:]:
                if not self._exclusive(scan, a, b):
                    verb_a = a.func.attr  # type: ignore[union-attr]
                    verb_b = b.func.attr  # type: ignore[union-attr]
                    return (
                        b.lineno, b.col_offset,
                        f"in `{scan.fn.display}`: event `{name}` may be "
                        f"triggered twice (`.{verb_a}` at line {a.lineno}, "
                        f"`.{verb_b}` at line {b.lineno}); Event triggers "
                        "are one-shot — guard with `.triggered` or make "
                        "the paths mutually exclusive",
                    )
        return None

    def _arm_of(
        self, scan: _FnScan, lca: ast.AST, node: ast.AST,
    ) -> tuple[str, int] | None:
        """Which field (and handler index) of *lca* contains *node*."""
        chain = [node, *scan.ancestors(node)]
        try:
            below = chain[chain.index(lca) - 1]
        except ValueError:  # pragma: no cover - lca is always an ancestor
            return None
        for fname, value in ast.iter_fields(lca):
            if isinstance(value, list):
                for idx, item in enumerate(value):
                    if item is below:
                        return (fname, idx)
        return None

    def _exclusive(self, scan: _FnScan, a: ast.AST, b: ast.AST) -> bool:
        a_anc = scan.ancestors(a)
        b_ids = {id(x) for x in [b, *scan.ancestors(b)]}
        lca = next((x for x in a_anc if id(x) in b_ids), scan.fn.node)
        if isinstance(lca, ast.If):
            arm_a = self._arm_of(scan, lca, a)
            arm_b = self._arm_of(scan, lca, b)
            if arm_a and arm_b and arm_a[0] != arm_b[0]:
                return True
        if isinstance(lca, ast.Try):
            arm_a = self._arm_of(scan, lca, a)
            arm_b = self._arm_of(scan, lca, b)
            if arm_a and arm_b:
                arms = {arm_a[0], arm_b[0]}
                if "handlers" in arms and arm_a != arm_b and arms != {
                        "finalbody"}:
                    return True
        return self._terminates_before(scan, a, b, lca)

    def _terminates_before(
        self, scan: _FnScan, a: ast.AST, b: ast.AST, lca: ast.AST,
    ) -> bool:
        """A terminator between *a*'s suite position and *b* means the
        flow that executed *a* can never reach *b*."""
        b_chain_ids = {id(x) for x in [b, *scan.ancestors(b)]}
        cur = a
        while True:
            parent = scan.parents.get(id(cur))
            if parent is None:
                return False
            for _fname, value in ast.iter_fields(parent):
                if not (isinstance(value, list) and any(
                        item is cur for item in value)):
                    continue
                idx = next(i for i, item in enumerate(value) if item is cur)
                for stmt in value[idx + 1:]:
                    if id(stmt) in b_chain_ids:
                        break  # b runs before any terminator at this level
                    if isinstance(stmt, _TERMINATORS):
                        return True
            if parent is lca:
                return False
            cur = parent

    # ------------------------------------------------------------------
    # LIV003: lost wakeup (closed-call-graph trigger reachability)
    # ------------------------------------------------------------------
    def _solve_trigger_params(self) -> dict[str, set[str]]:
        """Params each function may (transitively) trigger or hand off."""
        result: dict[str, set[str]] = {}
        forwards: dict[str, list[tuple[str, list[tuple[str, str]]]]] = {}
        for fn in self.functions:
            direct: set[str] = set()
            fwd: list[tuple[str, list[tuple[str, str]]]] = []
            params = [p for p in fn.params if p not in ("self", "cls")]
            for node in ast.walk(fn.node):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)):
                    recv = node.func.value
                    if (isinstance(recv, ast.Name) and recv.id in params
                            and node.func.attr in ("succeed", "fail")):
                        direct.add(recv.id)
                    for arg in node.args:
                        if isinstance(arg, ast.Name) and arg.id in params:
                            if node.func.attr in _ESCAPE_METHODS:
                                direct.add(arg.id)
                if isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (node.targets if isinstance(node, ast.Assign)
                               else [node.target])
                    if any(isinstance(t, (ast.Attribute, ast.Subscript))
                           for t in targets):
                        for p in params:
                            if _contains_name(node.value, p):
                                direct.add(p)
                if isinstance(node, ast.Return) and node.value is not None:
                    for p in params:
                        if _contains_name(node.value, p):
                            direct.add(p)
                if isinstance(node, ast.Call):
                    for p in params:
                        targets2 = self._forward_targets(node, p)
                        if targets2:
                            fwd.append((p, targets2))
                        elif targets2 is None and any(
                                isinstance(arg, ast.Name) and arg.id == p
                                for arg in node.args):
                            direct.add(p)  # unresolvable call: conservative
            result[fn.qualname] = direct
            forwards[fn.qualname] = fwd
        changed = True
        while changed:
            changed = False
            for fn in self.functions:
                known = result[fn.qualname]
                for p, targets in forwards[fn.qualname]:
                    if p in known:
                        continue
                    if any(param in result.get(qual, set())
                           for qual, param in targets):
                        known.add(p)
                        changed = True
        return result

    def _forward_targets(
        self, call: ast.Call, name: str,
    ) -> list[tuple[str, str]] | None:
        """``(callee qualname, param)`` pairs *name* is forwarded to.

        Empty list: *name* is not a direct argument.  ``None``: it is,
        but the callee cannot be resolved (caller must be conservative).
        """
        tail = (call_name(call.func) or "").rsplit(".", 1)[-1]
        candidates = self.by_name.get(tail, [])
        positions = [
            i for i, arg in enumerate(call.args)
            if isinstance(arg, ast.Name) and arg.id == name
        ]
        keywords = [
            kw.arg for kw in call.keywords
            if kw.arg and isinstance(kw.value, ast.Name)
            and kw.value.id == name
        ]
        if not positions and not keywords:
            return []
        if not candidates or len(candidates) > MAX_CALL_CANDIDATES:
            return None
        out: list[tuple[str, str]] = []
        for cand in candidates:
            offset = 1 if (cand.is_method
                           and isinstance(call.func, ast.Attribute)) else 0
            for pos in positions:
                idx = pos + offset
                if idx < len(cand.params):
                    out.append((cand.qualname, cand.params[idx]))
                else:  # *args landing spot: cannot track, be conservative
                    return None
            for kw in keywords:
                out.append((cand.qualname, kw))
        return out

    def _scan_lost_wakeup(self, scan: _FnScan) -> None:
        fn = scan.fn
        events = _event_locals(fn.node)
        if not events:
            return
        yields = [
            n for n in walk_own_body(fn.node)
            if isinstance(n, (ast.Yield, ast.YieldFrom))
        ]
        for name in sorted(events):
            wait = next(
                (y for y in yields if _contains_name(y.value, name)), None)
            if wait is None:
                continue
            if self._may_trigger_local(scan, name):
                continue
            self.hits.append(Hit(
                "LIV003", fn.src, wait.lineno, wait.col_offset,
                f"in `{fn.display}`: process waits on event `{name}` but no "
                "reachable code triggers it (lost wakeup — the process "
                "stalls forever); pass it to a callee that succeeds/fails "
                "it, or store it where a completion handler will",
            ))

    def _may_trigger_local(self, scan: _FnScan, name: str) -> bool:
        fn = scan.fn
        for node in ast.walk(fn.node):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                recv = node.func.value
                if (isinstance(recv, ast.Name) and recv.id == name
                        and node.func.attr in ("succeed", "fail")):
                    return True
                if node.func.attr in _ESCAPE_METHODS and any(
                        isinstance(arg, ast.Name) and arg.id == name
                        for arg in node.args):
                    return True
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, (ast.Attribute, ast.Subscript))
                    for t in node.targets):
                if _contains_name(node.value, name):
                    return True
            if isinstance(node, ast.Return) and _contains_name(
                    node.value, name):
                return True
            if isinstance(node, ast.Call):
                targets = self._forward_targets(node, name)
                if targets is None:
                    return True  # unresolvable callee: assume it triggers
                if any(param in self._trigger_params.get(qual, set())
                       for qual, param in targets):
                    return True
        return False

    # ------------------------------------------------------------------
    # LIV005: unbounded network-facing waits
    # ------------------------------------------------------------------
    def _scan_unbounded_completion(self, scan: _FnScan) -> None:
        fn = scan.fn
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
                self.hits.append(Hit(
                    "LIV005", fn.src, creation.lineno, creation.col_offset,
                    f"in `{fn.display}`: completion event `{name}` is "
                    "registered for a remote response and returned to the "
                    "caller with no deadline composed; a dropped response "
                    "stalls the waiter forever — add a sim.delayed_call "
                    "expiry (see repro.api.rpc.RpcEndpoint.call)",
                ))


# ----------------------------------------------------------------------
# Engine cache (same shape as hotpath_engine)
# ----------------------------------------------------------------------

_ENGINE_CACHE: dict[tuple, LivenessEngine] = {}
_ENGINE_CACHE_LIMIT = 8


def liveness_engine(sources: Sequence[SourceFile]) -> LivenessEngine:
    key = tuple((str(src.path), hash(src.source)) for src in sources)
    engine = _ENGINE_CACHE.get(key)
    if engine is None:
        if len(_ENGINE_CACHE) >= _ENGINE_CACHE_LIMIT:
            _ENGINE_CACHE.clear()
        engine = _ENGINE_CACHE[key] = LivenessEngine(sources)
    return engine


# ----------------------------------------------------------------------
# Rules
# ----------------------------------------------------------------------

class _LivenessRule(ProjectRule):
    """Shared shape: filter the engine's hits by rule id."""

    def check_project(self, sources: Sequence[SourceFile]) -> Iterator[Finding]:
        engine = liveness_engine(sources)
        for hit in engine.hits:
            if hit.rule_id == self.rule_id:
                yield self.finding(hit.src, hit.line, hit.col, hit.message)


class ResourceLeakRule(_LivenessRule):
    rule_id = "LIV001"
    description = (
        "resource acquired with a path (including exception paths) that "
        "never releases it"
    )
    explanation = (
        "A simulator process acquires a Resource (acquire/request/"
        "exclusive_regs) but some path never reaches the matching "
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


class DoubleTriggerRule(_LivenessRule):
    rule_id = "LIV002"
    description = (
        "event may be succeeded/failed more than once, or re-triggered "
        "after being consumed"
    )
    explanation = (
        "repro.sim Events are one-shot: a second succeed()/fail() raises "
        "RuntimeError, which surfaces inside whatever process happened "
        "to cause the second trigger — far from the real bug.  This "
        "fires when two unguarded trigger sites for one event are not "
        "mutually exclusive (different if/else or try/except arms, or "
        "an early return between them), or when a trigger sits in a "
        "loop that outlives the event's creation.  Guard late triggers "
        "with `if not ev.triggered:` (see _TxStages._fail in "
        "repro.core.device) or restructure so exactly one path triggers."
    )


class LostWakeupRule(_LivenessRule):
    rule_id = "LIV003"
    description = (
        "process waits on an event with no reachable trigger site in "
        "the closed call graph (lost wakeup)"
    )
    explanation = (
        "A process creates an event and yields on it, but nothing ever "
        "succeeds or fails it: it is not triggered locally, not handed "
        "to a callee that (transitively) triggers its parameter, and "
        "not stored anywhere a completion handler could find it.  The "
        "simulator cannot detect the stall — the process simply never "
        "resumes, and with it whatever replica logic it carried.  Pass "
        "the event to the code that completes the operation, or register "
        "it in a pending-completion map keyed for the response handler."
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
    DoubleTriggerRule,
    LostWakeupRule,
    UnboundedNetworkWaitRule,
)

