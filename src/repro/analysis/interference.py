"""Interference pass: racy interleavings inside simulator processes.

The DET/SIM/SEC/TNT rules catch nondeterministic *inputs*; this pass
catches racy *interleavings*.  A simulator process only loses control at
a ``yield``, so every data race in the cooperative model is a
shared-state access pattern spanning a yield point.  The run-time
counterpart is ``python -m repro sanitize`` (:mod:`repro.sanitizer`),
which reruns scenarios under shuffled same-timestamp order and diffs
their final-state digests.

Rules (applied only to functions that are themselves generators):

* ``RACE001`` — a module-level mutable (list/dict/set/...) mutated from
  inside a process: every process in the interpreter shares the binding.
* ``RACE002`` — read-modify-write of shared object state spanning a
  ``yield``: a value is read from a shared attribute chain before the
  yield and the chain is written after it, so another process can
  interleave at the suspension and the write clobbers its update
  (the classic lost-update race, TSan/lockset lineage).
* ``RACE003`` — iterating a shared container with a ``yield`` inside the
  loop body: any interleaved process may mutate the container
  mid-iteration; snapshot first (``list(...)``/``sorted(...)``).

"Shared" is decided by the chain's root
(:func:`repro.analysis.walker.shared_chain`, the one chain resolver the
passes use): ``self``/``cls`` and free variables (closure or module
bindings) are shared between interleavings; locals and parameters are
private to one activation.  The pass is a
lexical over-approximation — it cannot see whether another process
really aliases the object — so justified hits are waived inline with a
rationale comment, per the waiver workflow in ``docs/analysis.md``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.determinism import _exempt
from repro.analysis.rules import Finding, Rule
from repro.analysis.walker import (
    SourceFile,
    dotted_name,
    is_generator,
    iter_functions,
    shared_chain,
    walk_own_body,
)

#: Method names that mutate their receiver in place.
_MUTATORS = frozenset({
    "append", "appendleft", "extend", "extendleft", "insert", "add",
    "update", "pop", "popleft", "popitem", "remove", "discard", "clear",
    "setdefault", "sort", "reverse",
})

#: Constructor calls whose result is a shared-mutation hazard at module level.
_MUTABLE_CTORS = frozenset({
    "list", "dict", "set", "bytearray", "deque", "defaultdict", "Counter",
    "OrderedDict", "collections.deque", "collections.defaultdict",
    "collections.Counter", "collections.OrderedDict",
})

_MUTABLE_DISPLAYS = (ast.List, ast.Dict, ast.Set,
                     ast.ListComp, ast.DictComp, ast.SetComp)

#: Lazy iteration wrappers that expose the underlying container live.
_LAZY_WRAPPERS = frozenset({"enumerate", "reversed"})

#: Dict view methods — iterating them iterates the live container.
_LIVE_VIEWS = frozenset({"values", "items", "keys"})


def module_level_mutables(tree: ast.Module) -> set[str]:
    """Names bound at module level to a mutable container value."""
    names: set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        else:
            continue
        if isinstance(value, _MUTABLE_DISPLAYS):
            mutable = True
        elif isinstance(value, ast.Call):
            ctor = dotted_name(value.func)
            mutable = ctor in _MUTABLE_CTORS
        else:
            mutable = False
        if mutable:
            for target in targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


def _declared_globals(func: ast.AST) -> set[str]:
    names: set[str] = set()
    for node in walk_own_body(func):
        if isinstance(node, ast.Global):
            names.update(node.names)
    return names


def _local_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Parameters plus every name the function binds itself.

    Names declared ``global`` are excluded even when assigned — the
    assignment targets the module binding, which is shared.
    """
    args = func.args
    names = {a.arg for a in args.posonlyargs}
    names.update(a.arg for a in args.args)
    names.update(a.arg for a in args.kwonlyargs)
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    for node in walk_own_body(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            names.add(node.id)
        elif isinstance(node, ast.comprehension):
            for target in ast.walk(node.target):
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names - _declared_globals(func)


class _InterferenceRule(Rule):
    """Shared shape: per-generator analysis with module-mutable context."""

    def check(self, src: SourceFile) -> Iterator[Finding]:
        if _exempt(src):
            return
        mutables = module_level_mutables(src.tree)
        for func in iter_functions(src.tree):
            if not is_generator(func):
                continue
            yield from self.check_process(src, func, mutables)

    def check_process(
        self,
        src: SourceFile,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        mutables: set[str],
    ) -> Iterator[Finding]:
        raise NotImplementedError


class ModuleMutableMutationRule(_InterferenceRule):
    rule_id = "RACE001"
    description = (
        "module-level mutable mutated inside a simulator process; the "
        "binding is shared by every process in the interpreter"
    )
    explanation = (
        "A list/dict/set bound at module level is one object shared by "
        "every simulator process (and every Simulator instance) in the "
        "interpreter.  A process that mutates it makes replica state a "
        "function of interleaving order and of whatever ran earlier in "
        "the same interpreter, breaking the determinism requirement the "
        "CFT-to-BFT transformation rests on (paper §6, Listing 1).  Move "
        "the state onto the system/replica object, or pass it explicitly "
        "so ownership is visible."
    )

    def check_process(self, src, func, mutables):
        globals_ = _declared_globals(func)

        def hit(node: ast.AST, name: str, how: str) -> Finding:
            return self.finding(
                src, node.lineno, node.col_offset,
                f"in simulator process `{func.name}`: module-level mutable "
                f"`{name}` {how}",
            )

        for node in walk_own_body(func):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                receiver = node.func.value
                if (isinstance(receiver, ast.Name)
                        and receiver.id in mutables
                        and node.func.attr in _MUTATORS):
                    yield hit(node, receiver.id,
                              f"mutated via `.{node.func.attr}()`")
            elif isinstance(node, ast.Subscript):
                if (isinstance(node.ctx, (ast.Store, ast.Del))
                        and isinstance(node.value, ast.Name)
                        and node.value.id in mutables):
                    yield hit(node, node.value.id, "mutated via item assignment")
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    if (isinstance(target, ast.Name)
                            and target.id in globals_
                            and (target.id in mutables
                                 or isinstance(node, ast.AugAssign))):
                        yield hit(node, target.id, "rebound via `global`")


class YieldSpanningRmwRule(_InterferenceRule):
    rule_id = "RACE002"
    description = (
        "shared state read before a yield and written after it; an "
        "interleaved process can make the pre-yield read stale"
    )
    explanation = (
        "A simulator process only loses control at a yield, so a "
        "read-modify-write of shared state is atomic *unless* a yield "
        "separates the read from the write.  When it does, any process "
        "that interleaves at the suspension can update the same state, "
        "and the post-yield write silently clobbers that update (the "
        "lost-update race), making final replica state depend on the "
        "schedule — exactly what the paper's determinism requirement "
        "(§6, Listing 1) forbids.  Re-read the state after resuming, "
        "fold the update into one non-yielding region, or serialise "
        "writers through a `repro.sim.resources.Resource`.  If the state "
        "is provably private to one process, waive inline with a "
        "rationale comment."
    )

    def check_process(self, src, func, mutables):
        local_names = _local_names(func)
        yields: list[int] = []
        reads: dict[str, list[int]] = {}
        writes: dict[str, list[ast.AST]] = {}

        # A mutator call's receiver (`x.append(v)` loading `x`) is not a
        # *value* read: append-only accumulation cannot lose an update,
        # so counting it would flag every pair of appends spanning a
        # yield.  Pre-pass marks those loads (and the bound-method chain
        # itself) so the main walk skips them as reads.
        not_value_reads: set[int] = set()
        for node in walk_own_body(func):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _MUTATORS):
                not_value_reads.add(id(node.func))
                not_value_reads.add(id(node.func.value))

        def note_read(expr: ast.expr, line: int) -> None:
            chain = shared_chain(expr, local_names)
            if chain:
                reads.setdefault(chain, []).append(line)

        def note_write(expr: ast.expr, node: ast.AST) -> None:
            chain = shared_chain(expr, local_names)
            if chain:
                writes.setdefault(chain, []).append(node)

        for node in walk_own_body(func):
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                yields.append(node.lineno)
            elif isinstance(node, ast.Attribute):
                if id(node) in not_value_reads:
                    continue
                if isinstance(node.ctx, ast.Load):
                    note_read(node, node.lineno)
                else:
                    note_write(node, node)
            elif isinstance(node, ast.Subscript):
                if isinstance(node.ctx, (ast.Store, ast.Del)):
                    note_write(node.value, node)
            elif isinstance(node, ast.AugAssign):
                target = node.target
                if isinstance(target, ast.Attribute):
                    # An augmented assignment reads its target too.
                    note_read(target, node.lineno)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in _MUTATORS:
                    note_write(node.func.value, node)

        if not yields:
            return
        yields.sort()
        for chain, chain_writes in sorted(writes.items()):
            read_lines = sorted(reads.get(chain, []))
            if not read_lines:
                continue
            for write in sorted(chain_writes, key=lambda n: (n.lineno, n.col_offset)):
                span = self._spanning_yield(read_lines, yields, write.lineno)
                if span is None:
                    continue
                read_line, yield_line = span
                yield self.finding(
                    src, write.lineno, write.col_offset,
                    f"in simulator process `{func.name}`: `{chain}` read at "
                    f"line {read_line} is stale after the yield at line "
                    f"{yield_line}; this write may clobber an interleaved "
                    "update",
                )
                break  # one finding per chain keeps the report readable

    @staticmethod
    def _spanning_yield(
        read_lines: list[int], yields: list[int], write_line: int,
    ) -> tuple[int, int] | None:
        """The (read, yield) pair proving a span, or None.

        Line-number ordering is an approximation of control flow: it
        sees straight-line spans and misses loop-carried ones, which
        keeps protocol receive-loops (read/write above the next
        iteration's yield) out of the report.
        """
        for yield_line in yields:
            if yield_line > write_line:
                break
            before = [r for r in read_lines if r < yield_line]
            if before:
                return before[-1], yield_line
        return None


class SharedIterationYieldRule(_InterferenceRule):
    rule_id = "RACE003"
    description = (
        "yield inside a loop over a shared container; an interleaved "
        "process can mutate the container mid-iteration"
    )
    explanation = (
        "Iterating a shared container borrows it for the whole loop, but "
        "a yield inside the body hands control to other processes while "
        "the iterator is live.  If any of them mutates the container the "
        "iteration either raises (dicts) or silently skips/repeats "
        "elements (lists), so which elements get processed depends on "
        "the schedule.  Snapshot before looping (`list(...)`, "
        "`sorted(...)`) or restructure so the yield happens outside the "
        "iteration.  If the container is provably immutable after "
        "construction, waive inline with a rationale comment."
    )

    def check_process(self, src, func, mutables):
        local_names = _local_names(func)
        for node in walk_own_body(func):
            if not isinstance(node, (ast.For, ast.AsyncFor)):
                continue
            described = self._shared_iterable(node.iter, local_names, mutables)
            if described is None:
                continue
            if not self._body_yields(node):
                continue
            yield self.finding(
                src, node.lineno, node.col_offset,
                f"in simulator process `{func.name}`: loop over shared "
                f"container {described} has a yield in its body; snapshot "
                "with list()/sorted() before iterating",
            )

    @staticmethod
    def _shared_iterable(
        iterable: ast.expr, local_names: set[str], mutables: set[str],
    ) -> str | None:
        """Describe *iterable* if it exposes a live shared container."""
        while (isinstance(iterable, ast.Call)
               and isinstance(iterable.func, ast.Name)
               and iterable.func.id in _LAZY_WRAPPERS
               and iterable.args):
            iterable = iterable.args[0]
        if isinstance(iterable, ast.Attribute):
            chain = shared_chain(iterable, local_names)
            return f"`{chain}`" if chain else None
        if (isinstance(iterable, ast.Call)
                and isinstance(iterable.func, ast.Attribute)
                and iterable.func.attr in _LIVE_VIEWS):
            receiver = iterable.func.value
            chain = shared_chain(receiver, local_names)
            if (chain is None and isinstance(receiver, ast.Name)
                    and receiver.id in mutables):
                chain = receiver.id
            return f"`{chain}.{iterable.func.attr}()`" if chain else None
        if isinstance(iterable, ast.Name) and iterable.id in mutables:
            return f"module-level `{iterable.id}`"
        return None

    @staticmethod
    def _body_yields(loop: ast.For | ast.AsyncFor) -> bool:
        stack: list[ast.AST] = list(loop.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                continue  # a nested def's yields belong to that function
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                return True
            stack.extend(ast.iter_child_nodes(node))
        return False


INTERFERENCE_RULES = (
    ModuleMutableMutationRule,
    YieldSpanningRmwRule,
    SharedIterationYieldRule,
)
