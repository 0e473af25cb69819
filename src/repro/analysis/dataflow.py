"""Interprocedural dataflow: call graph, taint summaries, fixpoint engine.

The PR-1 passes stop at single-statement AST patterns; the failures the
paper's security argument actually worries about are *flow* failures —
key material reaching a log sink through two or three calls, or raw
wire bytes mutating trusted state without passing verification.  This
module provides the machinery those checks need, kept deliberately
generic (the TNIC-specific policy lives in
:mod:`repro.analysis.taint`):

* a **function index / call graph** over the project's
  :class:`~repro.analysis.walker.SourceFile` ASTs, resolving calls by
  their trailing dotted name (``self.attestation.verify_event`` →
  every ``verify_event`` definition) — Python offers no static types,
  so resolution is by-name and deliberately over-approximate;
* a **declarative manifest** (:class:`TaintManifest`) of taint
  *sources* (calls whose return is tainted, tainted attribute reads,
  tainted parameter names), *sinks* (calls that must never receive a
  tainted argument), and *sanitizers* (calls whose return launders its
  inputs — HMAC and attestation verification);
* **per-function summaries** (:class:`Summary`): which parameters flow
  to the return value, which tags the return carries unconditionally,
  and which parameters reach a sink inside the function or its callees;
* a **fixpoint driver** that re-analyses functions until summaries
  stabilise, so a secret that crosses three calls before hitting a sink
  is still reported — at the call site where the tainted value entered
  the offending chain, with the hop chain in the message.

The analysis is flow-insensitive inside a function (assignments are
accumulated to a per-name fixpoint) and field-insensitive (an attribute
read carries its object's taint).  Both choices over-approximate, which
is the right failure mode for a secrecy lint: a false positive is a
waiver away, a false negative is a leaked key.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.analysis.walker import SourceFile, dotted_name
from repro.sim.record import Record, record

#: Labels are either real tags ("key", "wire", ...) or parameter tokens
#: ("@name") used while a function is summarised symbolically.
_PARAM_PREFIX = "@"

#: Do not resolve a call when its trailing name matches more than this
#: many definitions — merging that many summaries is pure noise.
MAX_CALL_CANDIDATES = 6

#: Project-wide summary iterations (call-graph cycles converge fast).
MAX_FIXPOINT_PASSES = 10

#: Per-function env-propagation iterations (loops converge fast too).
MAX_LOCAL_PASSES = 6


# ----------------------------------------------------------------------
# Manifest
# ----------------------------------------------------------------------

@record
class SourceSpec(Record):
    """One way taint enters the program.

    Exactly one of *call* / *attribute* / *param* is set:

    * ``call`` — dotted-suffix pattern; a matching call's return value
      carries *tag* (``"mac_for"`` matches ``self.keystore.mac_for``);
    * ``attribute`` — attribute name; reading it taints the result;
    * ``param`` — parameter name; the parameter is born tainted, but
      only in modules under *packages* (empty = everywhere).
    """

    tag: str
    call: str | None = None
    attribute: str | None = None
    param: str | None = None
    packages: tuple[str, ...] = ()


@record
class SinkSpec(Record):
    """A call that must never receive an argument tainted with *tag*."""

    tag: str
    kind: str
    call: str


@record
class TaintManifest(Record):
    """The complete source/sink/sanitizer policy for one analysis run."""

    sources: tuple[SourceSpec, ...] = ()
    sinks: tuple[SinkSpec, ...] = ()
    #: Dotted-suffix patterns; a matching call returns *clean* data and
    #: is never itself a sink (verification consumes secrets by design).
    sanitizers: tuple[str, ...] = ()
    #: Tags flagged when they reach an ``==`` / ``!=`` comparison.
    compare_tags: tuple[str, ...] = ()
    #: Tags flagged when stored into an attribute/subscript...
    store_tags: tuple[str, ...] = ()
    #: ...but only in modules *outside* these packages (empty = all).
    store_outside_packages: tuple[str, ...] = ()
    #: Tags flagged when passed from a trusted module to a function
    #: defined outside *trusted_packages*.
    untrusted_call_tags: tuple[str, ...] = ()
    trusted_packages: tuple[str, ...] = ()


def pattern_matches(pattern: str, name: str) -> bool:
    """Dotted-suffix match; ``pkg.*`` patterns are prefix matches."""
    if pattern.endswith(".*"):
        head = pattern[:-2]
        return name == head or name.startswith(head + ".")
    return name == pattern or name.endswith("." + pattern)


def module_under(module: str, packages: Iterable[str]) -> bool:
    return any(
        module == pkg or module.startswith(pkg + ".") for pkg in packages
    )


# ----------------------------------------------------------------------
# Function index
# ----------------------------------------------------------------------

@record
class SinkHit(Record):
    """A sink reached by one of a function's parameters (transitively)."""

    tag: str
    kind: str
    sink: str
    via: tuple[str, ...] = ()


@record
class Summary(Record):
    """What a function does with taint, as seen from a call site."""

    param_to_return: frozenset[str] = frozenset()
    return_tags: frozenset[str] = frozenset()
    param_sinks: tuple[tuple[str, tuple[SinkHit, ...]], ...] = ()

    def sinks_for(self, param: str) -> tuple[SinkHit, ...]:
        for name, hits in self.param_sinks:
            if name == param:
                return hits
        return ()


@dataclass
class FunctionInfo:
    """One module-level function or class method."""

    qualname: str
    module: str
    name: str
    params: tuple[str, ...]
    vararg: str | None
    is_method: bool
    node: ast.FunctionDef | ast.AsyncFunctionDef
    src: SourceFile
    summary: Summary = field(default_factory=Summary)

    @property
    def display(self) -> str:
        return self.qualname.split(".", 2)[-1] if "." in self.qualname else self.qualname


def _function_params(node: ast.FunctionDef | ast.AsyncFunctionDef) -> tuple[tuple[str, ...], str | None]:
    a = node.args
    names = [p.arg for p in (*a.posonlyargs, *a.args)]
    names.extend(p.arg for p in a.kwonlyargs)
    if a.kwarg is not None:
        names.append(a.kwarg.arg)
    return tuple(names), (a.vararg.arg if a.vararg else None)


def index_functions(sources: Sequence[SourceFile]) -> list[FunctionInfo]:
    """Module-level functions and class methods, in deterministic order."""
    infos: list[FunctionInfo] = []
    for src in sources:
        for node in src.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                params, vararg = _function_params(node)
                infos.append(FunctionInfo(
                    qualname=f"{src.module}.{node.name}", module=src.module,
                    name=node.name, params=params, vararg=vararg,
                    is_method=False, node=node, src=src,
                ))
            elif isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        params, vararg = _function_params(sub)
                        infos.append(FunctionInfo(
                            qualname=f"{src.module}.{node.name}.{sub.name}",
                            module=src.module, name=sub.name, params=params,
                            vararg=vararg, is_method=True, node=sub, src=src,
                        ))
    return infos


def call_name(func: ast.expr) -> str | None:
    """The dotted name of a call target, or its trailing attribute chain
    when the chain is rooted in a call/subscript (``f().hexdigest`` →
    ``hexdigest``)."""
    full = dotted_name(func)
    if full is not None:
        return full
    if isinstance(func, ast.Name):
        return func.id
    parts: list[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join(reversed(parts)) if parts else None


# ----------------------------------------------------------------------
# Flows (the engine's output)
# ----------------------------------------------------------------------

@record
class TaintFlow(Record):
    """One tainted value reaching one sink, at one source location."""

    tag: str
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
        self.manifest = engine.manifest
        self.fn = fn
        self.env: dict[str, set[str]] = {}
        self.return_labels: set[str] = set()
        self.param_sinks: dict[str, set[SinkHit]] = {}
        self.flows: list[TaintFlow] = []
        self._flow_keys: set[tuple] = set()
        for name in (*fn.params, *( (fn.vararg,) if fn.vararg else () )):
            labels = {_PARAM_PREFIX + name}
            for spec in self.manifest.sources:
                if spec.param == name and (
                    not spec.packages or module_under(fn.module, spec.packages)
                ):
                    labels.add(spec.tag)
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
        tags = frozenset(
            label for label in self.return_labels
            if not label.startswith(_PARAM_PREFIX)
        )
        sinks = tuple(
            (name, tuple(sorted(hits, key=lambda h: (h.tag, h.kind, h.sink, h.via))))
            for name, hits in sorted(self.param_sinks.items())
        )
        return Summary(param_to_return=passthrough, return_tags=tags,
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
            manifest = self.manifest
            if manifest.store_tags and (
                not manifest.store_outside_packages
                or not module_under(self.fn.module, manifest.store_outside_packages)
            ):
                try:
                    rendered = ast.unparse(target)
                except Exception:  # pragma: no cover - unparse is total on valid ASTs
                    rendered = "<store>"
                for tag in manifest.store_tags:
                    self._hit(tag, "store", f"assignment to `{rendered}`",
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
            for spec in self.manifest.sources:
                if spec.attribute == node.attr and (
                    not spec.packages
                    or module_under(self.fn.module, spec.packages)
                ):
                    labels = labels | {spec.tag}
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
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            return
        for tag in self.manifest.compare_tags:
            self._hit(tag, "compare", "`==`/`!=` comparison", labels, node, record)

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

        manifest = self.manifest
        if cname is not None:
            if any(pattern_matches(p, cname) for p in manifest.sanitizers):
                return set()
            for spec in manifest.sources:
                if spec.call is not None and pattern_matches(spec.call, cname):
                    return {spec.tag}
            for spec in manifest.sinks:
                if pattern_matches(spec.call, cname):
                    for labels in all_arg_labels:
                        self._hit(spec.tag, spec.kind, f"{cname}()",
                                  labels, node, record)

        result: set[str] = set()
        candidates = self._resolve(cname)
        if candidates:
            attr_call = isinstance(func, ast.Attribute)
            for cand in candidates:
                for pname, labels in self._map_args(
                    cand, positional, keywords, attr_call
                ):
                    for hit in cand.summary.sinks_for(pname):
                        via = (f"{cand.display}()",) + hit.via
                        if len(via) <= 4:
                            self._hit(hit.tag, hit.kind, hit.sink, labels,
                                      node, record, via=via)
                    if pname in cand.summary.param_to_return:
                        result |= labels
                result |= cand.summary.return_tags
            if manifest.untrusted_call_tags and module_under(
                self.fn.module, manifest.trusted_packages
            ):
                # By-name resolution is over-approximate, so only flag
                # when *every* candidate lives outside the TCB — a mixed
                # set plausibly targets the trusted definition.
                if not any(
                    module_under(c.module, manifest.trusted_packages)
                    for c in candidates
                ):
                    target = candidates[0].qualname
                    for labels in all_arg_labels:
                        for tag in manifest.untrusted_call_tags:
                            self._hit(tag, "untrusted-call",
                                      f"{target}()", labels, node, record)
        else:
            for labels in all_arg_labels:
                result |= labels
        return result | base_labels

    def _resolve(self, cname: str | None) -> list[FunctionInfo]:
        if cname is None:
            return []
        final = cname.rsplit(".", 1)[-1]
        candidates = self.engine.by_name.get(final, [])
        if 0 < len(candidates) <= MAX_CALL_CANDIDATES:
            return candidates
        return []

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
        tag: str,
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
                    SinkHit(tag=tag, kind=kind, sink=sink, via=via)
                )
        if record and tag in labels:
            key = (tag, kind, sink, node.lineno, node.col_offset, via)
            if key not in self._flow_keys:
                self._flow_keys.add(key)
                self.flows.append(TaintFlow(
                    tag=tag, kind=kind, sink=sink, module=self.fn.module,
                    path=str(self.fn.src.path), line=node.lineno,
                    col=node.col_offset, via=via,
                ))


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------

class TaintEngine:
    """Project-wide taint analysis over a fixed manifest.

    *functions* is the :func:`index_functions` index; the engine keeps
    its summaries on those records and starts them empty.
    """

    def __init__(self, functions: list[FunctionInfo], manifest: TaintManifest) -> None:
        self.manifest = manifest
        self.functions = functions
        self.by_name: dict[str, list[FunctionInfo]] = {}
        for info in functions:
            info.summary = Summary()
            self.by_name.setdefault(info.name, []).append(info)

    def summaries(self) -> dict[str, Summary]:
        """``{qualname: summary}`` after the fixpoint (for tests/tools)."""
        return {fn.qualname: fn.summary for fn in self.functions}

    def run(self) -> list[TaintFlow]:
        for _ in range(MAX_FIXPOINT_PASSES):
            changed = False
            for fn in self.functions:
                single = _FunctionPass(self, fn)
                single.run()
                summary = single.summary()
                if summary != fn.summary:
                    fn.summary = summary
                    changed = True
            if not changed:
                break
        flows: list[TaintFlow] = []
        for fn in self.functions:
            final = _FunctionPass(self, fn)
            final.run()
            flows.extend(final.flows)
        flows.sort(key=lambda f: (f.path, f.line, f.col, f.tag, f.kind, f.sink))
        return flows


def analyze_dataflow(
    sources: Sequence[SourceFile], manifest: TaintManifest
) -> list[TaintFlow]:
    """Convenience one-shot: index *sources*, run the engine, return its flows."""
    return TaintEngine(index_functions(sources), manifest).run()
