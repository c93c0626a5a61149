"""replint pass ``buffer-arena``: no boxed buffer storage on the data plane.

The columnar arena (:mod:`repro.core.arena`) exists so the ``b * k``
resident elements live in one contiguous float64 store and flow through
the kernels as typed slices — the memory-bandwidth data plane.  One
``list[float]`` attribute quietly reintroduces a pointer-chasing boxed
store (28+ bytes per element instead of 8, no vectorisation), and one
stray ``.tolist()`` in a hot path pays a per-element boxing round-trip
that the arena was built to eliminate.  This pass keeps both from
regressing.

Codes:

* ``RPL501`` — a ``list[float]``-annotated attribute (instance or
  dataclass field) inside the core/kernels packages; element storage
  belongs in the arena (``array('d')``).  Deliberate
  O(k) boxed staging must carry a justified suppression.
* ``RPL502`` — a ``.tolist()`` conversion call; values should stay
  columnar from ingest to query.  The kernel backends' own conversion
  surface and cold paths carry justified suppressions.
* ``RPL503`` — a python-level per-element loop (``for``/``while``/
  comprehension/generator) inside a *native-boundary* module (the
  ``native-modules`` option; by default the compiled backend's shim).
  The shim's contract is that every per-element operation crosses into
  the C core once per batch; a python loop there reintroduces exactly
  the per-element PyFloat round-trip the extension exists to remove,
  and it does so silently — throughput degrades, nothing breaks.
  Sanctioned per-element surfaces carry justified suppressions.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator, Mapping
from typing import Any

from repro.analysis.engine import Finding, Pass, SourceModule, register

__all__ = ["BufferArenaPass"]

#: Annotation spellings of a boxed float store.
_BOXED_ANNOTATIONS = {"list[float]", "List[float]", "typing.List[float]"}

#: AST shapes that iterate per element at python speed.
_LOOP_NODES = (
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)


@register
class BufferArenaPass(Pass):
    """Buffer elements stay columnar; no boxed lists on the data plane."""

    name = "buffer-arena"
    codes = {
        "RPL501": "boxed `list[float]` element storage",
        "RPL502": "`.tolist()` conversion on the data plane",
        "RPL503": "python-level per-element loop on the native boundary",
    }
    default_options: dict[str, Any] = {
        "packages": ["repro.core", "repro.kernels"],
        "native-modules": ["repro.kernels.native_backend"],
    }

    def check(
        self, module: SourceModule, options: Mapping[str, Any]
    ) -> Iterator[Finding]:
        native_modules = list(options.get("native-modules", ()))
        if module.module is not None and module.module in native_modules:
            for node in ast.walk(module.tree):
                if isinstance(node, _LOOP_NODES):
                    yield self._finding(
                        module,
                        node,
                        "RPL503",
                        "python-level per-element iteration in a "
                        "native-boundary module; the compiled kernel shim "
                        "must cross into the C core once per batch, not "
                        "once per element — move the loop into "
                        "repro.kernels._native or justify the cold path",
                    )
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                # Class-body annotations: dataclass fields and slots.
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and self._is_boxed(
                        stmt.annotation
                    ):
                        yield self._storage_finding(module, stmt)
            elif isinstance(node, ast.AnnAssign):
                # Instance attributes: `self._staged: list[float] = []`.
                if isinstance(node.target, ast.Attribute) and self._is_boxed(
                    node.annotation
                ):
                    yield self._storage_finding(module, node)
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) and func.attr == "tolist":
                    yield self._finding(
                        module,
                        node,
                        "RPL502",
                        "`.tolist()` boxes one PyFloat per element; keep "
                        "values columnar through the kernels (arena views, "
                        "`array('d')`), or justify the cold-path conversion",
                    )

    @staticmethod
    def _is_boxed(annotation: ast.expr | None) -> bool:
        if annotation is None:
            return False
        return ast.unparse(annotation) in _BOXED_ANNOTATIONS

    def _storage_finding(self, module: SourceModule, node: ast.AST) -> Finding:
        return self._finding(
            module,
            node,
            "RPL501",
            "boxed `list[float]` element storage; resident buffer elements "
            "belong in the columnar arena (`array('d')`) at 8 bytes each "
            "— justify O(k) staging lists explicitly",
        )

    def _finding(
        self, module: SourceModule, node: ast.AST, code: str, message: str
    ) -> Finding:
        return Finding(
            module.rel,
            getattr(node, "lineno", 1),
            getattr(node, "col_offset", 0) + 1,
            code,
            self.name,
            message,
        )
