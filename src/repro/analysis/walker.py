"""Source discovery and AST plumbing for the analysis passes.

The passes (determinism, boundaries, taint, hot path, liveness, TCB
accounting) all operate on the same parsed view of the project: a list of
:class:`SourceFile` records carrying the file's dotted module name, its
AST, and its raw lines.  This module builds that view — it walks a
directory tree, derives module names from package ``__init__.py``
ancestry (so fixture trees parse exactly like the real package), and
extracts the import graph with ``if TYPE_CHECKING:`` imports marked,
since type-only imports never execute and must not count against the
trusted boundary.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.sim.record import Record, record


@record
class ImportEdge(Record):
    """One ``import``/``from`` statement resolved to a dotted module."""

    module: str
    line: int
    type_only: bool = False

    def top_package(self, depth: int = 2) -> str:
        """The first *depth* dotted components (``repro.core.dma`` → ``repro.core``)."""
        return ".".join(self.module.split(".")[:depth])


@dataclass
class SourceFile:
    """A parsed project source file, the unit every rule consumes."""

    path: Path
    module: str
    source: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)

    @property
    def package(self) -> str:
        """The module's package (``repro.core.dma`` → ``repro.core``)."""
        return ".".join(self.module.split(".")[:-1]) or self.module

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def imports(self) -> list[ImportEdge]:
        return collect_imports(self.tree)


def module_name_for(path: Path) -> str:
    """Derive the dotted module name from package ``__init__.py`` ancestry.

    Walks up while each parent directory is a package, so both
    ``src/repro/core/dma.py`` and a test fixture ``tmp/repro/core/bad.py``
    resolve to ``repro.core.*`` as long as ``__init__.py`` files exist.
    """
    path = path.resolve()
    parts: list[str] = []
    directory = path.parent
    while (directory / "__init__.py").exists():
        parts.insert(0, directory.name)
        parent = directory.parent
        if parent == directory:
            break
        directory = parent
    if path.stem != "__init__":
        parts.append(path.stem)
    return ".".join(parts) if parts else path.stem


def parse_file(path: Path) -> SourceFile:
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    return SourceFile(
        path=path,
        module=module_name_for(path),
        source=source,
        tree=tree,
        lines=source.splitlines(),
    )


def iter_python_files(root: Path) -> Iterator[Path]:
    if root.is_file():
        if root.suffix == ".py":
            yield root
        return
    yield from sorted(root.rglob("*.py"))


def collect_sources(paths: Iterable[Path]) -> list[SourceFile]:
    """Parse every ``.py`` file under *paths* (files or directories)."""
    sources: list[SourceFile] = []
    seen: set[Path] = set()
    for root in paths:
        for path in iter_python_files(Path(root)):
            resolved = path.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            sources.append(parse_file(resolved))
    return sources


def default_package_root() -> Path:
    """The installed ``repro`` package directory (the default lint target)."""
    import repro

    return Path(repro.__file__).resolve().parent


# ----------------------------------------------------------------------
# Import extraction
# ----------------------------------------------------------------------

def _is_type_checking_test(test: ast.expr) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def collect_imports(tree: ast.Module) -> list[ImportEdge]:
    """Every import in *tree*, with ``if TYPE_CHECKING:`` bodies marked."""
    edges: list[ImportEdge] = []

    def visit(node: ast.AST, type_only: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                for alias in child.names:
                    edges.append(ImportEdge(alias.name, child.lineno, type_only))
            elif isinstance(child, ast.ImportFrom):
                if child.module and child.level == 0:
                    edges.append(ImportEdge(child.module, child.lineno, type_only))
            elif isinstance(child, ast.If) and _is_type_checking_test(child.test):
                for stmt in child.body:
                    visit_stmt_list(stmt, True)
                for stmt in child.orelse:
                    visit_stmt_list(stmt, type_only)
            else:
                visit(child, type_only)

    def visit_stmt_list(stmt: ast.stmt, type_only: bool) -> None:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                edges.append(ImportEdge(alias.name, stmt.lineno, type_only))
        elif isinstance(stmt, ast.ImportFrom):
            if stmt.module and stmt.level == 0:
                edges.append(ImportEdge(stmt.module, stmt.lineno, type_only))
        else:
            visit(stmt, type_only)

    visit(tree, False)
    return edges


def import_graph(sources: Iterable[SourceFile]) -> dict[str, list[tuple[str, ImportEdge]]]:
    """Map each module to its (imported module, edge) pairs, runtime-only."""
    graph: dict[str, list[tuple[str, ImportEdge]]] = {}
    for src in sources:
        graph[src.module] = [
            (edge.module, edge) for edge in src.imports() if not edge.type_only
        ]
    return graph


# ----------------------------------------------------------------------
# Function and attribute-chain helpers shared by the passes
# ----------------------------------------------------------------------

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def walk_own_body(func: ast.AST) -> Iterator[ast.AST]:
    """Walk *func* without descending into nested function definitions."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, _FUNCTION_NODES):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def dotted_name(node: ast.expr) -> str | None:
    """Render an ``a.b.c`` attribute/name chain, or None for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def chain_parts(expr: ast.expr) -> list[str] | None:
    """``a.b[k].c`` → ``["a", "b", "c"]``; None if rooted elsewhere.

    Subscripts are peeled (indexing into a container keeps the chain),
    calls are not (a call result is a fresh value).
    """
    parts: list[str] = []
    node = expr
    while True:
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Name):
            parts.append(node.id)
            return list(reversed(parts))
        else:
            return None
