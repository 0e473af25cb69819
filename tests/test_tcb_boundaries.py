"""Tier-1 gate: the trusted-boundary import DAG holds over the real tree.

Any new import that lets ``repro.core`` / ``repro.crypto`` / the
``repro.roce`` datapath reach into the untrusted world fails this test
with the exact file:line edge, mirroring the paper's minimal-TCB
argument (Table 4): the trusted NIC depends on nothing above it.
"""

from __future__ import annotations

import pytest

from repro.analysis import (
    BOUNDARY_MANIFEST,
    TRUSTED_PACKAGES,
    check_boundaries,
    import_graph,
)


@pytest.mark.lint
def test_manifest_covers_every_trusted_package():
    assert set(TRUSTED_PACKAGES) <= set(BOUNDARY_MANIFEST)
    # The manifest is a DAG over constrained packages: everything a
    # constrained package may import is itself constrained, so trust
    # cannot leak transitively through an unconstrained layer.
    for allowed in BOUNDARY_MANIFEST.values():
        assert allowed <= set(BOUNDARY_MANIFEST)


@pytest.mark.lint
def test_trusted_packages_exist_in_tree(real_sources):
    modules = {src.module for src in real_sources}
    for package in BOUNDARY_MANIFEST:
        assert any(m == package or m.startswith(package + ".") for m in modules), (
            f"manifest names {package} but no such module exists"
        )


@pytest.mark.lint
def test_no_trusted_boundary_violations(real_sources):
    violations = check_boundaries(real_sources)
    assert violations == [], "\n".join(v.render() for v in violations)


@pytest.mark.lint
def test_untrusted_world_never_reached_transitively(real_sources):
    """Closure check: from any trusted module, follow runtime imports —
    no path may reach a repro package outside the boundary manifest."""
    graph = import_graph(real_sources)
    constrained = set(BOUNDARY_MANIFEST)

    def top(module: str) -> str:
        return ".".join(module.split(".")[:2])

    for start, edges in graph.items():
        if top(start) not in constrained:
            continue
        stack = [module for module, _ in edges]
        seen = set()
        while stack:
            module = stack.pop()
            if module in seen or not module.startswith("repro"):
                continue
            seen.add(module)
            package = top(module)
            if package != "repro":
                assert package in constrained, (
                    f"{start} transitively reaches untrusted {module}"
                )
            stack.extend(m for m, _ in graph.get(module, []))
