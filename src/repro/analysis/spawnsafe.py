"""replint pass ``spawn-safety``: plain data only across process lines.

The Section 6 parallel protocol ships "at most one full buffer and one
partial buffer" per processor — a bound :mod:`repro.runtime` preserves
by sending only primitive specs in and CRC-framed snapshot bytes out.
Pickling a live estimator (or capturing one in a worker closure) would
silently break that bound, tie the wire format to object internals, and
behave differently under ``fork`` (shared pages) and ``spawn`` (fresh
interpreters).  This pass keeps the boundary honest:

* ``RPL201`` — a process ``target=`` that is not a module-level
  function (lambda, bound method, nested function): closures smuggle
  whole object graphs across the boundary under ``fork`` and fail
  outright under ``spawn``.
* ``RPL202`` — module-level multiprocessing side effect
  (``Process(...)``, ``Pool(...)``, ``set_start_method(...)``) outside
  an ``if __name__ == "__main__"`` guard: under ``spawn`` the child
  re-imports the module and forks the fork bomb.  Checked in *every*
  scanned file (scripts included), not just the configured packages.
* ``RPL203`` — a payload dataclass (name ending in one of
  ``payload-suffixes``, e.g. ``WorkerSpec``) with a field annotation
  that is not plain data: payloads must survive pickling into a fresh
  interpreter that has imported nothing but the payload's module.
* ``RPL204`` — a process ``args=`` tuple containing a call or lambda:
  arguments must be pre-built plain data, not objects constructed
  inline on the parent side of the boundary.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator, Mapping
from typing import Any

from repro.analysis.engine import Finding, Pass, SourceModule, register

__all__ = ["SpawnSafetyPass"]

#: Dotted-name tails that construct a process/pool when called.
_PROCESS_TAILS = {"Process", "Pool", "ProcessPoolExecutor"}

#: Module-level calls that are multiprocessing side effects.
_SIDE_EFFECT_TAILS = _PROCESS_TAILS | {"set_start_method"}

#: Annotation base names considered plain, picklable-by-value data.
_PLAIN_TYPE_NAMES = {
    "int",
    "float",
    "str",
    "bytes",
    "bool",
    "None",
    "dict",
    "list",
    "tuple",
    "set",
    "frozenset",
    "object",
    "Optional",
    "Union",
    "Sequence",
    "Mapping",
    "Iterable",
    "Any",
}


@register
class SpawnSafetyPass(Pass):
    """Process boundaries carry plain data shipped by plain functions."""

    name = "spawn-safety"
    codes = {
        "RPL201": "process target is not a module-level function",
        "RPL202": "module-level multiprocessing side effect without __main__ guard",
        "RPL203": "cross-process payload field is not plain data",
        "RPL204": "process args built inline instead of pre-built plain data",
    }
    default_options: dict[str, Any] = {
        "packages": ["repro.runtime"],
        "payload-suffixes": ["Spec", "Shipment", "Payload"],
    }

    def applies_to(self, module: SourceModule, options: Mapping[str, Any]) -> bool:
        # RPL202 (the __main__ guard) is a property of *scripts*, so the
        # pass visits every file; the payload/target checks additionally
        # scope themselves to the configured packages in check().
        return True

    def check(
        self, module: SourceModule, options: Mapping[str, Any]
    ) -> Iterator[Finding]:
        yield from self._check_module_level_side_effects(module)
        if not super().applies_to(module, options):
            return
        toplevel_functions = {
            stmt.name
            for stmt in module.tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        suffixes = tuple(options.get("payload-suffixes", ()))
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield from self._check_process_call(module, node, toplevel_functions)
            elif isinstance(node, ast.ClassDef) and node.name.endswith(suffixes):
                yield from self._check_payload_class(module, node)

    # -- RPL202: guarded module scope ----------------------------------

    def _check_module_level_side_effects(
        self, module: SourceModule
    ) -> Iterator[Finding]:
        for stmt in self._unguarded_statements(module.tree.body):
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                dotted = module.resolve(node.func)
                if dotted is None:
                    continue
                tail = dotted.rsplit(".", 1)[-1]
                if tail in _SIDE_EFFECT_TAILS and self._is_mp_origin(dotted):
                    yield self._finding(
                        module,
                        node,
                        "RPL202",
                        f"`{dotted}(...)` at module level runs again in "
                        "every spawned child when the module is "
                        're-imported; move it under `if __name__ == '
                        '"__main__"`',
                    )

    def _unguarded_statements(self, body: list[ast.stmt]) -> Iterator[ast.stmt]:
        """Top-level statements reachable on a bare import of the module."""
        for stmt in body:
            if isinstance(
                stmt,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
            ):
                continue
            if isinstance(stmt, ast.If) and self._is_main_guard(stmt.test):
                continue
            yield stmt

    @staticmethod
    def _is_main_guard(test: ast.expr) -> bool:
        return (
            isinstance(test, ast.Compare)
            and isinstance(test.left, ast.Name)
            and test.left.id == "__name__"
            and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Eq)
            and len(test.comparators) == 1
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value == "__main__"
        )

    @staticmethod
    def _is_mp_origin(dotted: str) -> bool:
        head = dotted.split(".", 1)[0]
        return head in {"multiprocessing", "mp", "concurrent"} or dotted in (
            _SIDE_EFFECT_TAILS
        )

    # -- RPL201 / RPL204: process construction sites -------------------

    def _check_process_call(
        self,
        module: SourceModule,
        node: ast.Call,
        toplevel_functions: set[str],
    ) -> Iterator[Finding]:
        dotted = module.resolve(node.func)
        if dotted is None or dotted.rsplit(".", 1)[-1] not in _PROCESS_TAILS:
            return
        for keyword in node.keywords:
            if keyword.arg == "target":
                yield from self._check_target(
                    module, keyword.value, toplevel_functions
                )
            elif keyword.arg == "args":
                yield from self._check_args(module, keyword.value)

    def _check_target(
        self,
        module: SourceModule,
        target: ast.expr,
        toplevel_functions: set[str],
    ) -> Iterator[Finding]:
        if isinstance(target, ast.Lambda):
            yield self._finding(
                module,
                target,
                "RPL201",
                "a lambda target cannot be pickled under the spawn start "
                "method; use a module-level function",
            )
        elif isinstance(target, ast.Attribute):
            yield self._finding(
                module,
                target,
                "RPL201",
                "a bound-method target drags its whole `self` across the "
                "process boundary; use a module-level function taking "
                "plain data",
            )
        elif isinstance(target, ast.Name) and target.id not in toplevel_functions:
            yield self._finding(
                module,
                target,
                "RPL201",
                f"target `{target.id}` is not a module-level function in "
                "this module; nested functions close over parent state "
                "and fail under spawn",
            )

    def _check_args(self, module: SourceModule, args: ast.expr) -> Iterator[Finding]:
        elements = args.elts if isinstance(args, (ast.Tuple, ast.List)) else []
        for element in elements:
            if isinstance(element, (ast.Call, ast.Lambda)):
                yield self._finding(
                    module,
                    element,
                    "RPL204",
                    "process args must be pre-built plain data; "
                    "constructing objects inline here hides what "
                    "actually crosses the process boundary",
                )

    # -- RPL203: payload field discipline ------------------------------

    def _check_payload_class(
        self, module: SourceModule, node: ast.ClassDef
    ) -> Iterator[Finding]:
        for stmt in node.body:
            if not isinstance(stmt, ast.AnnAssign):
                continue
            bad = self._non_plain_parts(stmt.annotation)
            if bad:
                target = (
                    stmt.target.id
                    if isinstance(stmt.target, ast.Name)
                    else ast.unparse(stmt.target)
                )
                yield self._finding(
                    module,
                    stmt,
                    "RPL203",
                    f"payload field `{node.name}.{target}` is annotated "
                    f"with non-plain type(s) {', '.join(sorted(bad))}; "
                    "cross-process payloads must be primitives the "
                    "far side can unpickle without importing engines",
                )

    def _non_plain_parts(self, annotation: ast.expr) -> set[str]:
        """Names in an annotation tree that are not plain-data types."""
        bad: set[str] = set()
        self._collect_non_plain(annotation, bad)
        return bad

    def _collect_non_plain(self, node: ast.expr, bad: set[str]) -> None:
        if isinstance(node, ast.Name):
            if node.id not in _PLAIN_TYPE_NAMES:
                bad.add(node.id)
        elif isinstance(node, ast.Attribute):
            # A dotted type (`repro.core.UnknownNQuantiles`) is judged as
            # a whole; its inner Name is not visited separately.
            bad.add(ast.unparse(node))
        elif isinstance(node, ast.Constant):
            pass  # None / string forward references carry no class
        else:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self._collect_non_plain(child, bad)

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
