"""The function index: the call graph every indexed lint pass shares.

The per-file passes stop at single-statement AST patterns; the
hot-path, liveness and key-secrecy passes need to follow calls.  This module
gives them one **function index** over the project's
:class:`~repro.analysis.walker.SourceFile` ASTs — every module-level
function and class method (:class:`FunctionInfo`), built once per lint
run by :func:`~repro.analysis.rules.collect_findings` — and the
by-name call resolution they all use: a call resolves by its trailing
dotted name (``self.attestation.verify_event`` → every
``verify_event`` definition).  Python offers no static types, so
resolution is by-name and deliberately over-approximate.  What each
pass derives from the index (the hot set, resource lifecycles, taint
summaries) lives with the pass.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.analysis.walker import SourceFile, dotted_name

#: Do not resolve a call when its trailing name matches more than this
#: many definitions — merging that many summaries is pure noise.
MAX_CALL_CANDIDATES = 6


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

@dataclass(eq=False)
class FunctionInfo:
    """One module-level function or class method.

    Compared and hashed by identity: an entry stands for one definition,
    so a pass can key what it learns about a function by its entry.
    """

    qualname: str
    module: str
    name: str
    params: tuple[str, ...]
    vararg: str | None
    is_method: bool
    node: ast.FunctionDef | ast.AsyncFunctionDef
    src: SourceFile

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
