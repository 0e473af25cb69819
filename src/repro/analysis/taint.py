"""Key-secrecy taint rules (SEC001–SEC003) and the engine behind them.

TNIC's security argument (§4) needs session/HW key material to live in
the attestation kernel's Keystore and never leave the TCB.
``tests/test_secrecy.py`` checks this dynamically for the modelled
protocol runs; the SEC rules check it statically for *every* path in
the code:

* ``SEC001`` — key material reaches a wire / log / telemetry /
  serialization sink, or is passed to an untrusted layer;
* ``SEC002`` — key material compared with ``==`` / ``!=`` (timing
  side channel; use ``hmac.compare_digest``);
* ``SEC003`` — key material stored in an attribute / container of a
  module outside the TCB packages.

The policy is the module constants below: where key material is born
(:data:`KEY_CALLS`, :data:`KEY_ATTRIBUTES`, :data:`KEY_PARAMS` — the
Keystore's ``mac_for`` / ``_session_macs``, since a session key is
kept as a keyed HMAC state, which forges an α as well as the key it
absorbed; ``_hw_keys`` reads; ``key`` parameters of TCB modules),
where it must never arrive (:data:`SINKS`), and which calls launder it
(:data:`SANITIZERS`: HMAC computation and the attestation-verify
family — their outputs are safe to share by construction; keying a
state is not one of them).

The failures the argument worries about are *flow* failures — key
material reaching a log sink through two or three calls — so the
engine is interprocedural, over the function index of
:mod:`repro.analysis.dataflow` (calls resolved by trailing dotted
name, deliberately over-approximate):

* **per-function summaries** (:class:`Summary`): which parameters flow
  to the return value, whether the return is key material
  unconditionally, and which parameters reach a sink inside the
  function or its callees;
* a **worklist fixpoint** that analyses every function once and then
  only the callers of a function whose summary changed, until summaries
  stabilise, so a secret that crosses three calls before hitting a sink
  is still reported — at the call site where the tainted value entered
  the offending chain, with the hop chain in the message.

The analysis is flow-insensitive inside a function (assignments are
accumulated to a per-name fixpoint) and field-insensitive (an attribute
read carries its object's taint, and so does an element of a tuple or
record: never pack a keyed state with values that must stay public).  Both choices over-approximate, which
is the right failure mode for a secrecy lint: a false positive is a
waiver away, a false negative is a leaked key.
"""

from __future__ import annotations

import ast
from heapq import heappop, heappush
from typing import Iterator, Sequence

from repro.analysis.boundaries import TRUSTED_PACKAGES
from repro.analysis.dataflow import (
    MAX_CALL_CANDIDATES,
    FunctionInfo,
    call_name,
    module_under,
    pattern_matches,
)
from repro.analysis.rules import Finding, IndexedRule
from repro.analysis.walker import SourceFile
from repro.sim.record import Record, record

#: Keystore reads: a session's keyed HMAC state is all the Keystore
#: holds of its key, and all a forger needs of it.  A matching call's
#: return value is key material (``"mac_for"`` matches
#: ``self.keystore.mac_for``).
KEY_CALLS = ("mac_for",)

#: Attribute reads that yield key material: the Keystore's session
#: states and the manufacturer/vendor HW-key tables of §3.2.
KEY_ATTRIBUTES = ("_session_macs", "_hw_keys")

#: Inside the TCB, parameters carrying key material are secrets from
#: birth (callers outside can only have obtained them from the sources
#: above, which interprocedural propagation covers).
KEY_PARAMS = ("key", "session_key", "hw_key")

#: ``(kind, call pattern)``: calls that must never receive key
#: material.  The kind is the word SEC001's message names the sink by.
SINKS = (
    # Logging.
    ("log", "print"),
    ("log", "logging.*"),
    # Telemetry (repro.telemetry via the repro.sim.instrument hooks).
    ("telemetry", "emit"),
    ("telemetry", "count"),
    ("telemetry", "gauge_set"),
    ("telemetry", "observe"),
    ("telemetry", "flight_trigger"),
    ("telemetry", "span_begin"),
    # Serialization.
    ("serialization", "json.dumps"),
    ("serialization", "json.dump"),
    ("serialization", "pickle.dumps"),
    ("serialization", "pickle.dump"),
    # Wire transmit.
    ("wire-transmit", "transmit"),
    ("wire-transmit", "post_send"),
)

#: Dotted-suffix patterns; a matching call returns *clean* data and is
#: never itself a sink (verification consumes secrets by design).
SANITIZERS = (
    # MAC/hash computation: outputs are safe to share by construction.
    # ``KeyedHmac.mac`` is the MAC boundary — what ``KeyedHmac(key)``
    # returns is still the key, absorbed; only its MACs are clean.
    "mac",
    "mac_encoded",
    "hmac_sha256",
    "sha256",
    # Constant-time comparison and the attestation-verify family.
    "compare_digest",
    "verify_encoded",
    "hmac_verify",
    "batch_verify",
    "verify",
    "verify_event",
    "check_transferable",
    "local_verify",
)

#: Labels are either the taint itself (``KEY``) or parameter tokens
#: (``"@name"``) used while a function is summarised symbolically.
KEY = "key"
_PARAM_PREFIX = "@"

#: Function analyses per indexed function, on average, that one run may
#: spend before it stops short of the fixpoint (call-graph cycles
#: converge fast: the real tree needs 1.2).
MAX_FIXPOINT_PASSES = 10

#: Per-function env-propagation iterations (loops converge fast too).
MAX_LOCAL_PASSES = 6


@record
class SinkHit(Record):
    """A sink reached by one of a function's parameters (transitively)."""

    kind: str
    sink: str
    via: tuple[str, ...] = ()


@record
class Summary(Record):
    """What a function does with taint, as seen from a call site."""

    param_to_return: frozenset[str] = frozenset()
    returns_key: bool = False
    param_sinks: tuple[tuple[str, tuple[SinkHit, ...]], ...] = ()

    def sinks_for(self, param: str) -> tuple[SinkHit, ...]:
        for name, hits in self.param_sinks:
            if name == param:
                return hits
        return ()


_NO_SUMMARY = Summary()


@record
class TaintFlow(Record):
    """Key material reaching one sink, at one source location."""

    kind: str
    sink: str
    module: str
    path: str
    line: int
    col: int
    via: tuple[str, ...] = ()

    def describe_path(self) -> str:
        if not self.via:
            return ""
        return " via " + " -> ".join(f"`{hop}`" for hop in self.via)


# ----------------------------------------------------------------------
# Per-function analysis
# ----------------------------------------------------------------------

class _FunctionPass:
    """Analyse one function body against the current summaries."""

    def __init__(self, engine: "TaintEngine", fn: FunctionInfo) -> None:
        self.engine = engine
        self.fn = fn
        self.env: dict[str, set[str]] = {}
        self.return_labels: set[str] = set()
        self.param_sinks: dict[str, set[SinkHit]] = {}
        self.flows: list[TaintFlow] = []
        self._flow_keys: set[tuple] = set()
        in_tcb = module_under(fn.module, TRUSTED_PACKAGES)
        for name in (*fn.params, *( (fn.vararg,) if fn.vararg else () )):
            labels = {_PARAM_PREFIX + name}
            if in_tcb and name in KEY_PARAMS:
                labels.add(KEY)
            self.env[name] = labels

    # -- driver --------------------------------------------------------
    def run(self) -> None:
        body = self.fn.node.body
        for _ in range(MAX_LOCAL_PASSES):
            before = {name: set(labels) for name, labels in self.env.items()}
            self._walk(body, record=False)
            if self.env == before:
                break
        self.return_labels.clear()
        self.param_sinks.clear()
        self.flows.clear()
        self._flow_keys.clear()
        self._walk(body, record=True)

    def summary(self) -> Summary:
        params = set(self.fn.params)
        if self.fn.vararg:
            params.add(self.fn.vararg)
        passthrough = frozenset(
            p for p in params if _PARAM_PREFIX + p in self.return_labels
        )
        sinks = tuple(
            (name, tuple(sorted(hits, key=lambda h: (h.kind, h.sink, h.via))))
            for name, hits in sorted(self.param_sinks.items())
        )
        return Summary(param_to_return=passthrough,
                       returns_key=KEY in self.return_labels,
                       param_sinks=sinks)

    # -- statements ----------------------------------------------------
    def _walk(self, stmts: Sequence[ast.stmt], record: bool) -> None:
        for stmt in stmts:
            self._stmt(stmt, record)

    def _stmt(self, stmt: ast.stmt, record: bool) -> None:
        if isinstance(stmt, ast.Expr):
            self._eval(stmt.value, record)
        elif isinstance(stmt, ast.Assign):
            labels = self._eval(stmt.value, record)
            for target in stmt.targets:
                self._assign(target, labels, record)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._assign(stmt.target, self._eval(stmt.value, record), record)
        elif isinstance(stmt, ast.AugAssign):
            labels = self._eval(stmt.value, record)
            if isinstance(stmt.target, ast.Name):
                labels |= self.env.get(stmt.target.id, set())
            self._assign(stmt.target, labels, record)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.return_labels |= self._eval(stmt.value, record)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._assign(stmt.target, self._eval(stmt.iter, record), record)
            self._walk(stmt.body, record)
            self._walk(stmt.orelse, record)
        elif isinstance(stmt, ast.While):
            self._eval(stmt.test, record)
            self._walk(stmt.body, record)
            self._walk(stmt.orelse, record)
        elif isinstance(stmt, ast.If):
            self._eval(stmt.test, record)
            self._walk(stmt.body, record)
            self._walk(stmt.orelse, record)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                labels = self._eval(item.context_expr, record)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, labels, record)
            self._walk(stmt.body, record)
        elif isinstance(stmt, ast.Try):
            self._walk(stmt.body, record)
            for handler in stmt.handlers:
                self._walk(handler.body, record)
            self._walk(stmt.orelse, record)
            self._walk(stmt.finalbody, record)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._eval(stmt.exc, record)
        elif isinstance(stmt, ast.Assert):
            self._eval(stmt.test, record)
            if stmt.msg is not None:
                self._eval(stmt.msg, record)
        # Nested defs, imports, pass, etc.: no dataflow tracked.

    def _assign(self, target: ast.expr, labels: set[str], record: bool) -> None:
        if isinstance(target, ast.Name):
            self.env.setdefault(target.id, set()).update(labels)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign(elt, labels, record)
        elif isinstance(target, ast.Starred):
            self._assign(target.value, labels, record)
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            if not module_under(self.fn.module, TRUSTED_PACKAGES):
                try:
                    rendered = ast.unparse(target)
                except Exception:  # pragma: no cover - unparse is total on valid ASTs
                    rendered = "<store>"
                self._hit("store", f"assignment to `{rendered}`",
                          labels, target, record)

    # -- expressions ---------------------------------------------------
    def _eval(self, node: ast.expr | None, record: bool) -> set[str]:
        if node is None:
            return set()
        if isinstance(node, ast.Name):
            return set(self.env.get(node.id, ()))
        if isinstance(node, ast.Constant):
            return set()
        if isinstance(node, ast.Attribute):
            labels = self._eval(node.value, record)
            if node.attr in KEY_ATTRIBUTES:
                labels = labels | {KEY}
            return labels
        if isinstance(node, ast.Call):
            return self._call(node, record)
        if isinstance(node, ast.Compare):
            self._compare(node, record)
            return set()
        if isinstance(node, ast.BinOp):
            return self._eval(node.left, record) | self._eval(node.right, record)
        if isinstance(node, ast.BoolOp):
            out: set[str] = set()
            for value in node.values:
                out |= self._eval(value, record)
            return out
        if isinstance(node, ast.UnaryOp):
            return self._eval(node.operand, record)
        if isinstance(node, ast.IfExp):
            self._eval(node.test, record)
            return self._eval(node.body, record) | self._eval(node.orelse, record)
        if isinstance(node, ast.Subscript):
            return self._eval(node.value, record) | self._eval(node.slice, record)
        if isinstance(node, ast.Slice):
            return (self._eval(node.lower, record)
                    | self._eval(node.upper, record)
                    | self._eval(node.step, record))
        if isinstance(node, ast.JoinedStr):
            out = set()
            for value in node.values:
                out |= self._eval(value, record)
            return out
        if isinstance(node, ast.FormattedValue):
            return self._eval(node.value, record)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            out = set()
            for elt in node.elts:
                out |= self._eval(elt, record)
            return out
        if isinstance(node, ast.Dict):
            out = set()
            for key in node.keys:
                if key is not None:
                    out |= self._eval(key, record)
            for value in node.values:
                out |= self._eval(value, record)
            return out
        if isinstance(node, ast.Starred):
            return self._eval(node.value, record)
        if isinstance(node, (ast.Yield, ast.YieldFrom, ast.Await)):
            return self._eval(node.value, record)
        if isinstance(node, ast.NamedExpr):
            labels = self._eval(node.value, record)
            self._assign(node.target, labels, record)
            return labels
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            for gen in node.generators:
                self._assign(gen.target, self._eval(gen.iter, record), record)
                for cond in gen.ifs:
                    self._eval(cond, record)
            return self._eval(node.elt, record)
        if isinstance(node, ast.DictComp):
            for gen in node.generators:
                self._assign(gen.target, self._eval(gen.iter, record), record)
                for cond in gen.ifs:
                    self._eval(cond, record)
            return self._eval(node.key, record) | self._eval(node.value, record)
        if isinstance(node, ast.Lambda):
            return set()
        return set()

    def _compare(self, node: ast.Compare, record: bool) -> None:
        labels = self._eval(node.left, record)
        for comparator in node.comparators:
            labels |= self._eval(comparator, record)
        if any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            self._hit("compare", "`==`/`!=` comparison", labels, node, record)

    def _call(self, node: ast.Call, record: bool) -> set[str]:
        func = node.func
        cname = call_name(func)
        base_labels: set[str] = set()
        if isinstance(func, ast.Attribute):
            base_labels = self._eval(func.value, record)
        elif not isinstance(func, ast.Name):
            base_labels = self._eval(func, record)

        positional: list[set[str]] = []
        for arg in node.args:
            if isinstance(arg, ast.Starred):
                positional.append(self._eval(arg.value, record))
            else:
                positional.append(self._eval(arg, record))
        keywords: list[tuple[str | None, set[str]]] = [
            (kw.arg, self._eval(kw.value, record)) for kw in node.keywords
        ]
        all_arg_labels = [*positional, *(labels for _, labels in keywords)]

        if cname is not None:
            if any(pattern_matches(p, cname) for p in SANITIZERS):
                return set()
            if any(pattern_matches(p, cname) for p in KEY_CALLS):
                return {KEY}
            for kind, pattern in SINKS:
                if pattern_matches(pattern, cname):
                    for labels in all_arg_labels:
                        self._hit(kind, f"{cname}()", labels, node, record)

        result: set[str] = set()
        candidates = self.engine.resolve(cname)
        if candidates:
            attr_call = isinstance(func, ast.Attribute)
            summaries = self.engine.summaries
            for cand in candidates:
                summary = summaries.get(cand, _NO_SUMMARY)
                for pname, labels in self._map_args(
                    cand, positional, keywords, attr_call
                ):
                    for hit in summary.sinks_for(pname):
                        via = (f"{cand.display}()",) + hit.via
                        if len(via) <= 4:
                            self._hit(hit.kind, hit.sink, labels,
                                      node, record, via=via)
                    if pname in summary.param_to_return:
                        result |= labels
                if summary.returns_key:
                    result.add(KEY)
            if module_under(self.fn.module, TRUSTED_PACKAGES):
                # By-name resolution is over-approximate, so only flag
                # when *every* candidate lives outside the TCB — a mixed
                # set plausibly targets the trusted definition.
                if not any(
                    module_under(c.module, TRUSTED_PACKAGES) for c in candidates
                ):
                    target = candidates[0].qualname
                    for labels in all_arg_labels:
                        self._hit("untrusted-layer", f"{target}()",
                                  labels, node, record)
        else:
            for labels in all_arg_labels:
                result |= labels
        return result | base_labels

    @staticmethod
    def _map_args(
        cand: FunctionInfo,
        positional: Sequence[set[str]],
        keywords: Sequence[tuple[str | None, set[str]]],
        attr_call: bool,
    ) -> list[tuple[str, set[str]]]:
        params = list(cand.params)
        if attr_call and cand.is_method and params and params[0] in ("self", "cls"):
            params = params[1:]
        out: list[tuple[str, set[str]]] = []
        for index, labels in enumerate(positional):
            if index < len(params):
                out.append((params[index], labels))
            elif cand.vararg is not None:
                out.append((cand.vararg, labels))
        names = set(cand.params)
        for name, labels in keywords:
            if name is not None and name in names:
                out.append((name, labels))
        return out

    # -- recording -----------------------------------------------------
    def _hit(
        self,
        kind: str,
        sink: str,
        labels: set[str],
        node: ast.AST,
        record: bool,
        via: tuple[str, ...] = (),
    ) -> None:
        for label in labels:
            if label.startswith(_PARAM_PREFIX):
                self.param_sinks.setdefault(label[1:], set()).add(
                    SinkHit(kind=kind, sink=sink, via=via)
                )
        if record and KEY in labels:
            key = (kind, sink, node.lineno, node.col_offset, via)
            if key not in self._flow_keys:
                self._flow_keys.add(key)
                self.flows.append(TaintFlow(
                    kind=kind, sink=sink, module=self.fn.module,
                    path=str(self.fn.src.path), line=node.lineno,
                    col=node.col_offset, via=via,
                ))


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------

class TaintEngine:
    """Project-wide key-secrecy analysis over the function index.

    *functions* is the :func:`~repro.analysis.dataflow.index_functions`
    index; :attr:`summaries` maps each of its functions to the summary
    the fixpoint has reached (empty until :meth:`run`).
    """

    def __init__(self, functions: list[FunctionInfo]) -> None:
        self.functions = functions
        self.summaries: dict[FunctionInfo, Summary] = {}
        self.by_name: dict[str, list[FunctionInfo]] = {}
        for info in functions:
            self.by_name.setdefault(info.name, []).append(info)

    def resolve(self, cname: str | None) -> list[FunctionInfo]:
        """The indexed functions a call of *cname* may reach, by its
        trailing name; none when the name is too common to tell."""
        if cname is None:
            return []
        final = cname.rsplit(".", 1)[-1]
        candidates = self.by_name.get(final, [])
        if 0 < len(candidates) <= MAX_CALL_CANDIDATES:
            return candidates
        return []

    def run(self) -> list[TaintFlow]:
        """Summaries to their fixpoint, then every function's flows.

        Each function is analysed once, callees first; after that a
        function is analysed again only when the summary of a function
        its body calls changed.  So a function's last analysis saw its
        callees' final summaries, and its flows are the ones that
        analysis found.
        """
        callees = {fn: self._named_callees(fn) for fn in self.functions}
        callers: dict[FunctionInfo, list[FunctionInfo]] = {}
        for fn, named in callees.items():
            for callee in named:
                callers.setdefault(callee, []).append(fn)
        order = _post_order(self.functions, callees)
        rank = {fn: index for index, fn in enumerate(order)}
        flows_of: dict[FunctionInfo, list[TaintFlow]] = {}
        budget = MAX_FIXPOINT_PASSES * len(order)
        queue = list(range(len(order)))  # ranks: already a heap
        queued = set(order)
        while queue and budget:
            budget -= 1
            fn = order[heappop(queue)]
            queued.discard(fn)
            single = _FunctionPass(self, fn)
            single.run()
            flows_of[fn] = single.flows
            summary = single.summary()
            if summary != self.summaries.get(fn, _NO_SUMMARY):
                self.summaries[fn] = summary
                for caller in callers.get(fn, ()):
                    if caller not in queued:
                        heappush(queue, rank[caller])
                        queued.add(caller)
        flows = [flow for fn in self.functions for flow in flows_of[fn]]
        flows.sort(key=lambda f: (f.path, f.line, f.col, f.kind, f.sink))
        return flows

    def _named_callees(self, fn: FunctionInfo) -> list[FunctionInfo]:
        """What the calls anywhere in *fn*'s body may resolve to: every
        callee whose summary its analysis can read, and maybe more."""
        named: dict[FunctionInfo, None] = {}
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call):
                named.update(dict.fromkeys(self.resolve(call_name(node.func))))
        return list(named)


def _post_order(
    functions: list[FunctionInfo],
    callees: dict[FunctionInfo, list[FunctionInfo]],
) -> list[FunctionInfo]:
    """*functions* in depth-first post-order over *callees*: a callee
    before its callers, except around a cycle."""
    order: list[FunctionInfo] = []
    seen: set[FunctionInfo] = set()
    for root in functions:
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, iter(callees[root]))]
        while stack:
            fn, pending = stack[-1]
            for callee in pending:
                if callee not in seen:
                    seen.add(callee)
                    stack.append((callee, iter(callees[callee])))
                    break
            else:
                stack.pop()
                order.append(fn)
    return order


# ----------------------------------------------------------------------
# Rules
# ----------------------------------------------------------------------

def _flow_rule(flow: TaintFlow) -> tuple[str, str]:
    """``(rule id, message)`` for one engine flow."""
    path = flow.describe_path()
    if flow.kind == "compare":
        return "SEC002", (
            "key material compared with `==`/`!=` (timing side channel)"
            f"{path}; use hmac.compare_digest")
    if flow.kind == "store":
        return "SEC003", f"key material stored outside the TCB: {flow.sink}{path}"
    return "SEC001", f"key material reaches {flow.kind} sink `{flow.sink}`{path}"


def flow_findings(
    sources: Sequence[SourceFile], functions: list[FunctionInfo],
) -> Iterator[Finding]:
    """The SEC family's one pass: the taint engine's flows, as findings."""
    by_path = {str(src.path): src for src in sources}
    for flow in TaintEngine(functions).run():
        rule_id, message = _flow_rule(flow)
        src = by_path.get(flow.path)
        yield Finding(
            rule=rule_id, module=flow.module, path=flow.path,
            line=flow.line, col=flow.col, message=message,
            snippet=src.line_text(flow.line) if src is not None else "",
        )


class _FlowRule(IndexedRule):
    family_pass = staticmethod(flow_findings)


class KeyToSinkRule(_FlowRule):
    rule_id = "SEC001"
    description = (
        "key material flows to a wire/log/telemetry/serialization sink "
        "or into an untrusted layer (§4 key secrecy)"
    )
    explanation = (
        "TNIC's security argument needs session and HW key material to\n"
        "stay inside the attestation kernel's TCB (paper §4.1: keys are\n"
        "'unknown to the untrusted parties').  This rule follows key\n"
        "material interprocedurally from its sources (`_hw_keys` reads,\n"
        "TCB `key` parameters, and the Keystore's `mac_for` /\n"
        "`_session_macs` — a session key is kept as a `KeyedHmac` state,\n"
        "which forges an attestation as well as the key would) and fires\n"
        "when it can reach a `print`/logging call, a telemetry hook\n"
        "(`emit`, `count`, ...), `json`/`pickle` serialization, a wire\n"
        "transmit (`transmit`, `post_send`), or a function defined\n"
        "outside the TCB packages.  Outputs of `KeyedHmac.mac`,\n"
        "`mac_encoded`/`hmac_sha256`/`sha256` and the verify family are\n"
        "clean by construction (one-way), so attestation certificates\n"
        "never fire."
    )


class KeyCompareRule(_FlowRule):
    rule_id = "SEC002"
    description = (
        "key material compared with non-constant-time `==`/`!=`; "
        "use hmac.compare_digest"
    )
    explanation = (
        "Comparing secrets with `==` short-circuits on the first\n"
        "differing byte, leaking the match length through timing.  Any\n"
        "comparison where either side carries key taint must go through\n"
        "`hmac.compare_digest` (the repo's `verify_encoded` already does)."
    )


class KeyEscrowRule(_FlowRule):
    rule_id = "SEC003"
    description = (
        "key material stored in an attribute/container outside the TCB "
        "packages (repro.core, repro.crypto, repro.roce)"
    )
    explanation = (
        "The Keystore is 'static memory inside the trusted hardware'\n"
        "(§4.1).  A copy of key material held in an object attribute or\n"
        "container of an untrusted module outlives the call that\n"
        "obtained it and widens the TCB silently.  Intentional\n"
        "exceptions (e.g. the §3.2 manufacturer→vendor HW-key\n"
        "disclosure) carry an inline `# lint: ignore[SEC003]` waiver."
    )


TAINT_RULES = (KeyToSinkRule, KeyCompareRule, KeyEscrowRule)
