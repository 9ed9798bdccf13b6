"""F005 — topology-affecting writes must invalidate the cached topology.

The executor caches its arbitration scaffolding in a ``_Topology``
built from which sessions are attached and how their workers are laid
out.  The dirty flag is the cache's only guard: nothing re-checks the
layout per step.  Any write that changes that layout — attaching or
detaching sessions, replacing ``params``, swapping a path or storage —
must raise the dirty flag (directly or via ``invalidate_topology`` /
``_notify_topology_change``), or the executor keeps arbitrating
yesterday's topology.

The check is registry-driven: ``[tool.repro-lint]`` lists the modules
under discipline (``topology-modules``), the attribute names that are
topology-affecting (``topology-fields``), and what counts as an
invalidation (``invalidators`` calls / ``dirty-attrs`` assignments).
Every function in a disciplined module that writes a registered field
— by assignment or by mutating call (``.append``, ``.remove``, ...) —
must also contain an invalidation.  Constructors are exempt (the
executor is not attached yet).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.findings import Finding
from repro.devtools.framework import Check, ModuleContext, register

#: Method calls that mutate a list/dict/set attribute in place.
_MUTATORS = frozenset(
    {"append", "remove", "clear", "extend", "insert", "pop", "update", "add", "discard", "sort"}
)

_EXEMPT_FUNCTIONS = frozenset({"__init__", "__new__", "__post_init__"})


def _walk_function(func: ast.AST) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested functions.

    A nested callback is its own accounting unit — an invalidation in
    the enclosing function does not cover writes that happen when the
    callback later fires (and vice versa).
    """
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _written_fields(
    func: ast.FunctionDef | ast.AsyncFunctionDef, fields: frozenset[str]
) -> list[tuple[str, ast.AST]]:
    """(field, node) pairs for registered-field writes inside ``func``."""
    writes: list[tuple[str, ast.AST]] = []
    for node in _walk_function(func):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Attribute) and target.attr in fields:
                    writes.append((target.attr, node))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _MUTATORS and isinstance(node.func.value, ast.Attribute):
                owner = node.func.value
                if owner.attr in fields:
                    writes.append((owner.attr, node))
    return writes


def _has_invalidation(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
    invalidators: frozenset[str],
    dirty_attrs: frozenset[str],
) -> bool:
    for node in _walk_function(func):
        if isinstance(node, ast.Call):
            callee = node.func
            name = callee.attr if isinstance(callee, ast.Attribute) else (
                callee.id if isinstance(callee, ast.Name) else None
            )
            if name in invalidators:
                return True
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Attribute) and target.attr in dirty_attrs:
                    return True
    return False


@register
class TopologyDirtyCheck(Check):
    """Flags topology-field writes without a cache invalidation."""

    code = "F005"
    name = "topology-dirty"
    description = "topology-affecting writes must raise the executor's dirty flag"
    example_bad = (
        "def retarget(self, path):\n"
        "    self.path = path              # cached equilibrium now stale\n"
    )
    example_good = (
        "def retarget(self, path):\n"
        "    self.path = path\n"
        "    self._mark_dirty()            # next step re-solves the topology\n"
    )

    def enabled_for(self, ctx: ModuleContext) -> bool:
        return ctx.in_scope(ctx.config.topology_modules)

    def run(self, ctx: ModuleContext) -> Iterator[Finding]:
        fields = frozenset(ctx.config.topology_fields)
        invalidators = frozenset(ctx.config.invalidators)
        dirty_attrs = frozenset(ctx.config.dirty_attrs)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name in _EXEMPT_FUNCTIONS:
                continue
            writes = _written_fields(node, fields)
            if not writes:
                continue
            if _has_invalidation(node, invalidators, dirty_attrs):
                continue
            for field, write in writes:
                yield ctx.finding(
                    self.code,
                    f"write to topology-affecting field {field!r} in "
                    f"{node.name}() without invalidating the cached topology "
                    "(call invalidate_topology/_notify_topology_change or set _dirty)",
                    write,
                )
