"""replint pass ``api-hygiene``: explicit surfaces, one-way layer graph.

A reproduction earns trust partly through its import graph: the kernel
and sampling substrate must not reach up into the runtime that hosts
them, and every module must say what it exports.  Without a machine
check these decay silently — PR 3 era code already grew two private
cross-package imports — and a cycle between, say, ``repro.core`` and
``repro.runtime`` would make the Section 6 worker protocol untestable
in isolation.

Codes:

* ``RPL401`` — a public module without ``__all__``: the import surface
  must be declared, not inferred from naming accidents.
* ``RPL402`` — an import that points *up* the layer order.  Layers are
  configured as a list of module-prefix groups, lowest first; a module
  may import from its own or any lower layer.  Modules matching no
  prefix (the top-level facade, scripts, tests) are exempt.
* ``RPL403`` — importing an underscore-private name from a module in a
  different subpackage; private names are private to their package.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator, Mapping
from typing import Any

from repro.analysis.engine import Finding, Pass, SourceModule, register

__all__ = ["ApiHygienePass"]


@register
class ApiHygienePass(Pass):
    """Declared exports; imports flow down the layer order only."""

    name = "api-hygiene"
    codes = {
        "RPL401": "public module lacks __all__",
        "RPL402": "import against the layer order",
        "RPL403": "private name imported across subpackages",
    }
    default_options: dict[str, Any] = {
        "packages": ["repro"],
        # Lowest layer first; prefixes are matched longest-first so a
        # module can sit in a different layer than its parent package
        # (repro.stats.describe builds *on* the estimators while
        # repro.stats.rank sits *under* them).
        "layers": [
            ["repro.reporting", "repro.stats.rank", "repro.stats.bounds",
             "repro.streams", "repro.analysis"],
            ["repro.kernels", "repro.sampling"],
            ["repro.core", "repro.stats"],
            ["repro.baselines", "repro.persist", "repro.db", "repro.audit"],
            ["repro.runtime"],
            ["repro.service"],
        ],
    }

    def check(
        self, module: SourceModule, options: Mapping[str, Any]
    ) -> Iterator[Finding]:
        yield from self._check_all_declaration(module)
        layers = [
            [str(prefix) for prefix in group]
            for group in options.get("layers", ())
        ]
        source_rank = self._rank(module.module, layers)
        for node in ast.walk(module.tree):
            targets: list[tuple[ast.AST, str]] = []
            if isinstance(node, ast.Import):
                targets = [(node, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                target = self._absolute_target(module, node)
                if target is None:
                    continue
                targets = [(node, target)]
                yield from self._check_private_imports(module, node, target)
            for ref, target in targets:
                yield from self._check_layering(
                    module, ref, target, source_rank, layers
                )

    # -- RPL401 --------------------------------------------------------

    def _check_all_declaration(self, module: SourceModule) -> Iterator[Finding]:
        if module.module is None:
            return
        stem = module.module.rsplit(".", 1)[-1]
        if stem.startswith("_") and stem != "__init__":
            return
        for stmt in module.tree.body:
            if (
                isinstance(stmt, ast.Assign)
                and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in stmt.targets
                )
            ) or (
                isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and stmt.target.id == "__all__"
            ):
                return
        yield Finding(
            module.rel,
            1,
            1,
            "RPL401",
            self.name,
            f"public module `{module.module}` does not declare __all__; "
            "the export surface must be explicit",
        )

    # -- RPL402 --------------------------------------------------------

    @staticmethod
    def _rank(module: str | None, layers: list[list[str]]) -> int | None:
        if module is None:
            return None
        best: tuple[int, int] | None = None  # (prefix length, rank)
        for rank, group in enumerate(layers):
            for prefix in group:
                if module == prefix or module.startswith(prefix + "."):
                    if best is None or len(prefix) > best[0]:
                        best = (len(prefix), rank)
        return None if best is None else best[1]

    def _check_layering(
        self,
        module: SourceModule,
        node: ast.AST,
        target: str,
        source_rank: int | None,
        layers: list[list[str]],
    ) -> Iterator[Finding]:
        if source_rank is None:
            return
        target_rank = self._rank(target, layers)
        if target_rank is None or target_rank <= source_rank:
            return
        yield Finding(
            module.rel,
            getattr(node, "lineno", 1),
            getattr(node, "col_offset", 0) + 1,
            "RPL402",
            self.name,
            f"`{module.module}` (layer {source_rank}) imports `{target}` "
            f"(layer {target_rank}): the dependency points up the layer "
            "order; move the shared code down or invert the dependency",
        )

    # -- RPL403 --------------------------------------------------------

    def _check_private_imports(
        self, module: SourceModule, node: ast.ImportFrom, target: str
    ) -> Iterator[Finding]:
        if module.module is None:
            return
        source_pkg = ".".join(module.module.split(".")[:2])
        target_pkg = ".".join(target.split(".")[:2])
        if source_pkg == target_pkg:
            return
        for alias in node.names:
            if alias.name.startswith("_") and not alias.name.startswith("__"):
                yield Finding(
                    module.rel,
                    node.lineno,
                    node.col_offset + 1,
                    "RPL403",
                    self.name,
                    f"`{alias.name}` is private to `{target}`; import a "
                    "public name or promote the helper to the public "
                    "surface of a lower layer",
                )

    def _absolute_target(
        self, module: SourceModule, node: ast.ImportFrom
    ) -> str | None:
        if node.level == 0:
            return node.module
        if module.module is None:
            return None
        parts = module.module.split(".")
        # module_name_for() names a package by its bare dotted path, so
        # level 1 drops nothing for a package __init__ and one component
        # for a plain module; each further level drops one more.
        drop = node.level - 1 if module.path.name == "__init__.py" else node.level
        base = parts[: len(parts) - drop] if drop else parts
        if node.module:
            base = [*base, node.module]
        return ".".join(base) if base else None
