"""replint pass ``resource-lifecycle``: acquire/release typestate checks.

The Section 6 parallel protocol's memory bound only holds if every
resource the runtime holds — file handles and persistent worker pools —
is released on *every* exit path.  This pass tracks that typestate over
a small catalogue of resource classes, each with its acquire
constructors, release methods, and owning-teardown method names.

An acquisition is *safe* when one of these holds:

* it is a ``with`` item (or the bound name is later used as one);
* its result is returned — ownership transfers to the caller;
* it is stored on ``self`` in a class that defines a teardown method
  (``close``/``shutdown``/``__exit__``/``__del__`` …);
* it is registered with an ``ExitStack`` (``enter_context``/
  ``callback``/``push``);
* the bound name is released inside a ``finally`` block.

Codes:

* ``RPL701`` — no visible release on any path: the resource outlives
  its scope (an fd leak, a zombie worker pool).
* ``RPL702`` — released on the happy path only (a plain ``x.close()``
  not inside ``finally``): an exception between acquire and release
  leaks the resource exactly when the system is already in trouble.
* ``RPL703`` — the name holding an unreleased resource is rebound by
  another acquisition (including loop bodies that acquire into the
  same name each iteration): the previous resource becomes
  unreachable *and* unreleased.

Module-level acquisitions (process-lifetime singletons) are exempt, as
is the module that implements a resource class itself (the
``exempt-modules`` option — its internals necessarily manipulate raw
handles).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from typing import Any

from repro.analysis.engine import Finding, Pass, SourceModule, register

__all__ = ["ResourceLifecyclePass"]

_FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef

#: ExitStack-style registration methods: passing a resource into one of
#: these transfers release responsibility to the stack.
_STACK_METHODS = {"enter_context", "callback", "push", "push_async_exit"}


@dataclass(frozen=True, slots=True)
class _Resource:
    """One resource class: how it is acquired, released, and owned."""

    label: str
    #: Dotted names matched against the full call target, its last two
    #: parts, or its last part (``tempfile.TemporaryFile`` vs ``open``).
    acquire: frozenset[str]
    #: Method names whose call on the bound name releases the resource.
    release: frozenset[str]
    #: Methods whose presence marks a class as owning teardown.
    teardown: frozenset[str]
    #: Module functions taking the resource as first argument that
    #: release it (``os.close(fd)`` for descriptor-level handles).
    release_functions: frozenset[str] = frozenset()


_RESOURCES = (
    _Resource(
        label="file handle",
        acquire=frozenset(
            {
                "open",
                "os.fdopen",
                "io.open",
                "gzip.open",
                "bz2.open",
                "lzma.open",
                "tempfile.TemporaryFile",
                "tempfile.NamedTemporaryFile",
                "socket.socket",
                "os.open",
            }
        ),
        release=frozenset({"close"}),
        teardown=frozenset({"close", "__exit__", "__del__"}),
        release_functions=frozenset({"os.close"}),
    ),
    _Resource(
        label="worker pool",
        acquire=frozenset(
            {
                "PersistentPool",
                "ProcessPoolExecutor",
                "ThreadPoolExecutor",
                "multiprocessing.Pool",
            }
        ),
        release=frozenset({"shutdown", "close", "stop", "terminate", "join"}),
        teardown=frozenset(
            {"shutdown", "close", "stop", "terminate", "__exit__", "__del__"}
        ),
    ),
)


@register
class ResourceLifecyclePass(Pass):
    """Every acquired resource has an exception-safe release path."""

    name = "resource-lifecycle"
    codes = {
        "RPL701": "resource acquired without a release path",
        "RPL702": "resource release is not exception-safe",
        "RPL703": "resource name rebound before release",
    }
    default_options: dict[str, Any] = {
        "packages": ["repro"],
        # Modules implementing a resource class manipulate raw handles
        # by design; their discipline is covered by their own tests.
        "exempt-modules": [],
    }

    def check(
        self, module: SourceModule, options: Mapping[str, Any]
    ) -> Iterator[Finding]:
        exempt = set(options.get("exempt-modules", ()))
        if module.module in exempt:
            return
        for func in ast.walk(module.tree):
            if isinstance(func, _FunctionNode):
                yield from self._check_function(module, func)

    # -- per-function typestate ----------------------------------------

    def _check_function(
        self, module: SourceModule, func: _FunctionNode
    ) -> Iterator[Finding]:
        acquisitions = [
            (node, resource)
            for node in self._own_nodes(func)
            if isinstance(node, ast.Call)
            for resource in [_match_resource(module, node)]
            if resource is not None
        ]
        if not acquisitions:
            return
        owning_class = self._enclosing_teardown_methods(module, func)
        parents = {
            child: parent
            for parent in ast.walk(func)
            for child in ast.iter_child_nodes(parent)
        }
        bound_events: dict[str, list[tuple[int, str]]] = {}
        for name, line, kind in self._name_events(module, func, acquisitions):
            bound_events.setdefault(name, []).append((line, kind))
        for call, resource in acquisitions:
            yield from self._judge(
                module, func, call, resource, parents, bound_events, owning_class
            )

    def _judge(
        self,
        module: SourceModule,
        func: _FunctionNode,
        call: ast.Call,
        resource: _Resource,
        parents: Mapping[ast.AST, ast.AST],
        bound_events: Mapping[str, list[tuple[int, str]]],
        owning_class: frozenset[str],
    ) -> Iterator[Finding]:
        context = _immediate_context(call, parents)
        if context in ("with", "return", "stack"):
            return
        if context == "self":
            if owning_class & resource.teardown:
                return
            yield self._finding(
                module,
                call,
                "RPL701",
                f"{resource.label} stored on `self` in a class with no "
                f"teardown method ({_fmt(resource.teardown)}); nothing "
                "ever releases it",
            )
            return
        if context == "discarded":
            yield self._finding(
                module,
                call,
                "RPL701",
                f"{resource.label} acquired and immediately discarded; "
                "bind it and release it, or use it as a `with` item",
            )
            return
        name = context  # bound local name
        events = sorted(bound_events.get(name, []))
        line = call.lineno
        later = [(ln, kind) for ln, kind in events if ln >= line]
        kinds = {kind for _, kind in later}
        if {"with", "transfer", "stack", "finally-release"} & kinds:
            return
        # RPL703: the same name re-acquires before any release event.
        reacquired = [
            ln
            for ln, kind in later
            if kind == "acquire" and ln > line
        ]
        released = [ln for ln, kind in later if kind == "release"]
        if reacquired and (not released or min(released) > min(reacquired)):
            yield self._finding(
                module,
                call,
                "RPL703",
                f"`{name}` holds an unreleased {resource.label} and is "
                f"rebound by another acquisition on line {min(reacquired)}; "
                "the first resource becomes unreachable without release",
            )
            return
        if _in_loop_without_release(call, parents, events):
            yield self._finding(
                module,
                call,
                "RPL703",
                f"`{name}` acquires a {resource.label} each loop iteration "
                "without releasing inside the loop; every iteration but "
                "the last leaks",
            )
            return
        if released:
            yield self._finding(
                module,
                call,
                "RPL702",
                f"{resource.label} bound to `{name}` is released only on "
                "the happy path; an exception before the release leaks it "
                "— use a `with` block or try/finally",
            )
            return
        yield self._finding(
            module,
            call,
            "RPL701",
            f"{resource.label} bound to `{name}` has no visible release "
            f"({_fmt(resource.release)}): use it as a `with` item, pair "
            "it with try/finally, return it, or store it on `self` in a "
            "class with a teardown method",
        )

    # -- event extraction ----------------------------------------------

    def _name_events(
        self,
        module: SourceModule,
        func: _FunctionNode,
        acquisitions: list[tuple[ast.Call, _Resource]],
    ) -> Iterator[tuple[str, int, str]]:
        """(name, line, kind) events over the bound resource names."""
        acquired_names = set()
        release_attrs: dict[str, set[str]] = {}
        release_funcs: dict[str, set[str]] = {}
        by_call = dict(acquisitions)
        for call, resource in acquisitions:
            name = _assigned_name(call, func)
            if name is None:
                continue
            acquired_names.add(name)
            release_attrs.setdefault(name, set()).update(resource.release)
            release_funcs.setdefault(name, set()).update(
                resource.release_functions
            )
        if not acquired_names:
            return
        finally_lines = _finally_line_ranges(func)
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                calls = _calls_within(node.value)
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id in (
                        acquired_names
                    ):
                        if any(call in by_call for call in calls):
                            yield target.id, node.lineno, "acquire"
                    elif (
                        isinstance(target, ast.Attribute)
                        and isinstance(node.value, ast.Name)
                        and node.value.id in acquired_names
                    ):
                        # self.x = name — ownership moves to the object.
                        yield node.value.id, node.lineno, "transfer"
            elif isinstance(node, ast.Return):
                if node.value is not None:
                    for used in _transferred_names(node.value):
                        if used in acquired_names:
                            yield used, node.lineno, "transfer"
            elif isinstance(node, ast.withitem):
                expr = node.context_expr
                if isinstance(expr, ast.Name) and expr.id in acquired_names:
                    yield expr.id, expr.lineno, "with"
            elif isinstance(node, ast.Call):
                yield from self._call_events(
                    module,
                    node,
                    acquired_names,
                    release_attrs,
                    release_funcs,
                    finally_lines,
                )

    def _call_events(
        self,
        module: SourceModule,
        node: ast.Call,
        acquired_names: set[str],
        release_attrs: Mapping[str, set[str]],
        release_funcs: Mapping[str, set[str]],
        finally_lines: list[tuple[int, int]],
    ) -> Iterator[tuple[str, int, str]]:
        def kind_at(line: int) -> str:
            in_finally = any(lo <= line <= hi for lo, hi in finally_lines)
            return "finally-release" if in_finally else "release"

        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in acquired_names
            and func.attr in release_attrs.get(func.value.id, ())
        ):
            yield func.value.id, node.lineno, kind_at(node.lineno)
            return
        if isinstance(func, ast.Attribute) and func.attr in _STACK_METHODS:
            for arg in node.args:
                if isinstance(arg, ast.Name) and arg.id in acquired_names:
                    yield arg.id, node.lineno, "stack"
            return
        # Function-style release: os.close(fd) and friends.
        if node.args and isinstance(node.args[0], ast.Name):
            name = node.args[0].id
            if name in acquired_names:
                dotted = module.resolve(func)
                if dotted in release_funcs.get(name, ()):
                    yield name, node.lineno, kind_at(node.lineno)

    # -- context helpers -----------------------------------------------

    def _own_nodes(self, func: _FunctionNode) -> Iterator[ast.AST]:
        """Nodes of this function, not of defs nested inside it."""
        stack: list[ast.AST] = list(ast.iter_child_nodes(func))
        while stack:
            node = stack.pop()
            if isinstance(node, _FunctionNode):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))

    def _enclosing_teardown_methods(
        self, module: SourceModule, func: _FunctionNode
    ) -> frozenset[str]:
        """Method names of the class lexically containing ``func``."""
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and func in node.body:
                return frozenset(
                    stmt.name
                    for stmt in node.body
                    if isinstance(stmt, _FunctionNode)
                )
        return frozenset()

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


# ----------------------------------------------------------------------
# Matching and shape helpers
# ----------------------------------------------------------------------

def _match_resource(module: SourceModule, call: ast.Call) -> _Resource | None:
    dotted = module.resolve(call.func)
    if dotted is None:
        return None
    parts = dotted.split(".")
    forms = {dotted, ".".join(parts[-2:]), parts[-1]}
    for resource in _RESOURCES:
        if forms & resource.acquire:
            return resource
    return None


def _immediate_context(
    call: ast.Call, parents: Mapping[ast.AST, ast.AST]
) -> str:
    """How the acquisition's value is consumed at the call site.

    Returns ``"with"`` / ``"return"`` / ``"self"`` / ``"stack"`` /
    ``"discarded"``, or the bound local name.  Wrapper expressions that
    merely pass the value along (``x if cond else y``, ``await``,
    ``a or b``, walrus) are climbed through to the real consumer.
    """
    node: ast.AST = call
    parent = parents.get(node)
    while isinstance(parent, (ast.IfExp, ast.BoolOp, ast.Await, ast.NamedExpr)):
        node = parent
        parent = parents.get(node)
    if isinstance(parent, ast.withitem):
        return "with"
    if isinstance(parent, ast.Return):
        return "return"
    if isinstance(parent, ast.Call) and node in parent.args:
        func = parent.func
        if isinstance(func, ast.Attribute) and func.attr in _STACK_METHODS:
            return "stack"
        # Any other call argument: the callee may or may not take
        # ownership — conservatively treat like a discard so the author
        # either binds it or justifies the hand-off.
        return "discarded"
    if isinstance(parent, (ast.Assign, ast.AnnAssign)):
        targets = (
            parent.targets if isinstance(parent, ast.Assign) else [parent.target]
        )
        for target in targets:
            if isinstance(target, ast.Attribute) and isinstance(
                target.value, ast.Name
            ):
                if target.value.id in ("self", "cls"):
                    return "self"
            if isinstance(target, ast.Name):
                return target.id
        return "discarded"
    return "discarded"


def _assigned_name(call: ast.Call, func: _FunctionNode) -> str | None:
    """The local name an acquisition binds to, seeing through wrapper
    expressions (``stream = open(p) if p else sys.stdin``)."""
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and call in _calls_within(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    return target.id
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if call in _calls_within(node.value) and isinstance(
                node.target, ast.Name
            ):
                return node.target.id
    return None


def _calls_within(expr: ast.expr) -> set[ast.Call]:
    """Call nodes of an expression reachable through wrapper shapes only
    (conditional/boolean/await/walrus) — not arbitrary sub-expressions,
    so ``x = wrap(open(p))`` does not credit the open to ``x``."""
    calls: set[ast.Call] = set()
    stack: list[ast.expr] = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Call):
            calls.add(node)
        elif isinstance(node, ast.IfExp):
            stack.extend((node.body, node.orelse))
        elif isinstance(node, ast.BoolOp):
            stack.extend(node.values)
        elif isinstance(node, ast.Await):
            stack.append(node.value)
        elif isinstance(node, ast.NamedExpr):
            stack.append(node.value)
    return calls


def _transferred_names(expr: ast.expr) -> set[str]:
    """Names a ``return`` hands to the caller *by value*.

    ``return handle`` (also via tuples, wrappers, or as a constructor
    argument) transfers ownership; ``return handle.readline()`` only
    reads *through* the handle and leaks it — so a name serving as the
    base of an attribute access does not count.
    """
    attribute_bases = {
        node.value
        for node in ast.walk(expr)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
    }
    return {
        node.id
        for node in ast.walk(expr)
        if isinstance(node, ast.Name) and node not in attribute_bases
    }


def _finally_line_ranges(func: _FunctionNode) -> list[tuple[int, int]]:
    """Line spans of every ``finally`` block (and ``__exit__`` bodies
    count via the teardown rule, not here)."""
    spans: list[tuple[int, int]] = []
    for node in ast.walk(func):
        if isinstance(node, (ast.Try, getattr(ast, "TryStar", ast.Try))):
            for stmt in node.finalbody:
                spans.append((stmt.lineno, _last_line(stmt)))
    return spans


def _last_line(stmt: ast.stmt) -> int:
    return max(
        (getattr(node, "end_lineno", None) or getattr(node, "lineno", 0))
        for node in ast.walk(stmt)
    )


def _in_loop_without_release(
    call: ast.Call,
    parents: Mapping[ast.AST, ast.AST],
    events: list[tuple[int, str]],
) -> bool:
    """Acquisition in a loop body with no release inside the same loop."""
    node: ast.AST = call
    while node in parents:
        parent = parents[node]
        if isinstance(parent, (ast.For, ast.AsyncFor, ast.While)):
            lo, hi = parent.lineno, _last_line(parent)
            return not any(
                lo <= line <= hi
                and kind in ("release", "finally-release", "with", "transfer")
                for line, kind in events
            )
        node = parent
    return False


def _fmt(names: frozenset[str]) -> str:
    return "/".join(sorted(names))
