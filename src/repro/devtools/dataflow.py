"""Intra-procedural dataflow / abstract interpretation for lint checks.

The F001–F008 checks are *syntactic*: they spot bad call sites and bad
literals.  The F009–F012 family needs to know where a value **came
from** — is this array a ``BatchStore`` view, does this float carry a
unit, did this generator's seed flow from :func:`derive_seed`, was this
number read off the wall clock?  This module supplies the machinery:

* :class:`Scope` / :func:`build_scope_tree` — symbol tables and scope
  resolution (module, class, function, lambda) with owner-class
  tracking for methods;
* :class:`DataflowEngine` — a forward abstract interpreter over one
  module: statements execute in program order, branches fork and join
  environments, loop bodies run twice to reach loop-carried facts, and
  reaching definitions (def-use chains) are recorded alongside;
* :class:`Domain` — the transfer-function interface a check implements:
  seed abstract values at parameters/constants/calls, combine them at
  operators, and observe stores (the sinks).  Abstract values are
  ``frozenset[str]`` tag sets; the empty set means "unknown"; joins are
  unions (may-analysis);
* :class:`DataflowCheck` — glue adapting a ``Domain`` to the existing
  :class:`~repro.devtools.framework.Check` registry, with de-duplication
  of findings re-reported by the loop fixpoint pass.

Everything is intra-procedural and stdlib-``ast`` only: no new runtime
dependencies, no cross-module inference.  Checks stay conservative —
an unknown value never produces a finding.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.devtools.findings import Finding
from repro.devtools.framework import Check, ModuleContext

#: Abstract value: a set of string tags.  Empty set = unknown.
Value = frozenset
EMPTY: Value = frozenset()

#: Environment: name -> abstract value.
Env = dict

#: Reaching definitions: name -> frozenset of defining statement nodes.
Defs = dict


# ---------------------------------------------------------------------------
# Scopes and symbol tables.
# ---------------------------------------------------------------------------

_SCOPE_NODES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


class Scope:
    """One lexical scope: the module, a class body, or a function/lambda.

    Attributes
    ----------
    kind:
        ``"module"``, ``"class"``, ``"function"``, or ``"lambda"``.
    node:
        The AST node that opens the scope.
    parent:
        Enclosing scope (``None`` for the module).
    name:
        Function/class name (``"<module>"`` / ``"<lambda>"``).
    owner_class:
        For functions defined directly inside a class body, that class's
        name — how a domain knows ``self`` in ``TransferSession.crash_worker``
        is a session.
    functions, classes:
        Names bound to ``def``/``class`` statements directly in this
        scope (the local half of call resolution).
    """

    def __init__(self, kind: str, node: ast.AST, parent: Optional["Scope"]) -> None:
        self.kind = kind
        self.node = node
        self.parent = parent
        self.children: list[Scope] = []
        self.name = getattr(node, "name", "<module>" if kind == "module" else "<lambda>")
        self.owner_class = parent.name if parent is not None and parent.kind == "class" else None
        self.functions: dict[str, ast.AST] = {}
        self.classes: dict[str, ast.ClassDef] = {}
        if parent is not None:
            parent.children.append(self)

    def enclosing_function(self) -> Optional["Scope"]:
        """This scope if it is a function/lambda, else the nearest one up."""
        scope: Optional[Scope] = self
        while scope is not None and scope.kind not in ("function", "lambda"):
            scope = scope.parent
        return scope

    def lookup_local_def(self, name: str) -> ast.AST | None:
        """A ``def``/``class`` node visible from this scope under ``name``."""
        scope: Optional[Scope] = self
        while scope is not None:
            if name in scope.functions:
                return scope.functions[name]
            if name in scope.classes:
                return scope.classes[name]
            scope = scope.parent
        return None


def build_scope_tree(tree: ast.Module) -> Scope:
    """The scope tree of one module (root is the module scope)."""
    root = Scope("module", tree, None)

    def walk(node: ast.AST, scope: Scope) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope.functions[child.name] = child
                walk(child, Scope("function", child, scope))
            elif isinstance(child, ast.Lambda):
                walk(child, Scope("lambda", child, scope))
            elif isinstance(child, ast.ClassDef):
                scope.classes[child.name] = child
                walk(child, Scope("class", child, scope))
            else:
                walk(child, scope)

    walk(tree, root)
    return root


def iter_code_scopes(root: Scope) -> Iterator[Scope]:
    """Every scope whose body executes as straight-line code.

    Yields the module scope, then each function/lambda scope in source
    order.  Class scopes are not yielded — their bodies execute as part
    of the enclosing scope's walk (class attributes are module-time
    code), while their methods are function scopes of their own.
    """
    if root.kind in ("module", "function", "lambda"):
        yield root
    for child in root.children:
        yield from iter_code_scopes(child)


def dotted_module(module_key: str) -> str:
    """``repro/transfer/session.py`` -> ``repro.transfer.session``."""
    key = module_key
    if key.endswith(".py"):
        key = key[: -len(".py")]
    if key.endswith("/__init__"):
        key = key[: -len("/__init__")]
    return key.replace("/", ".")


# ---------------------------------------------------------------------------
# The domain interface (transfer functions).
# ---------------------------------------------------------------------------


class Domain:
    """Transfer functions for one abstract interpretation.

    Every hook has a conservative default (return unknown / do
    nothing); a check overrides only the ones its property needs.  The
    engine sets :attr:`engine` before running, so hooks may consult
    ``self.engine.scope`` (the scope being executed) and
    ``self.engine.ctx`` (the module context).
    """

    engine: "DataflowEngine"

    # -- value sources -------------------------------------------------------

    def param(self, scope: Scope, name: str, annotation: ast.expr | None) -> Value:
        """Abstract value of a function parameter."""
        return self.name_fallback(name)

    def name_fallback(self, name: str) -> Value:
        """Value of a name with no definition in scope (free/global)."""
        return EMPTY

    def constant(self, node: ast.Constant) -> Value:
        """Value of a literal."""
        return EMPTY

    # -- value transformers --------------------------------------------------

    def call(
        self,
        node: ast.Call,
        target: str | None,
        base: Value,
        args: list,
        keywords: list,
    ) -> Value:
        """Value of a call result.

        ``target`` is the canonical dotted name when the callee resolves
        through imports or a local ``def``; ``base`` is the abstract
        value of the attribute chain's root for method calls
        (``streams.get(...)``); ``args``/``keywords`` pair each argument
        node with its abstract value (``(node, value)`` and
        ``(name, node, value)``).
        """
        return EMPTY

    def attribute_load(self, node: ast.Attribute, base: Value, resolved: str | None) -> Value:
        """Value of an attribute read (``resolved`` set for import chains)."""
        return EMPTY

    def subscript_load(self, node: ast.Subscript, base: Value) -> Value:
        """Value of ``base[...]`` (defaults to passing the base through)."""
        return base

    def binop(self, node: ast.BinOp, left: Value, right: Value) -> Value:
        """Value of a binary operation (also where mixed-unit checks live)."""
        return EMPTY

    def compare(self, node: ast.Compare, pairs: list) -> None:
        """Observe a comparison; ``pairs`` is ``[(op, left_value, right_value), ...]``."""

    def iterate(self, node: ast.expr, iterable: Value) -> Value:
        """Value bound to a loop target when iterating ``iterable``."""
        return EMPTY

    def unpack(self, value: Value) -> Value:
        """Per-element value when tuple-unpacking ``value``."""
        return value

    # -- sinks ---------------------------------------------------------------

    def store_attr(
        self, stmt: ast.stmt, target: ast.Attribute, base: Value, value: Value, aug: bool
    ) -> None:
        """Observe ``<base>.<attr> = value`` (``aug`` for ``+=`` forms)."""

    def store_subscript(
        self, stmt: ast.stmt, target: ast.Subscript, base: Value, value: Value, aug: bool
    ) -> None:
        """Observe ``<base>[...] = value`` (``aug`` for ``+=`` forms)."""


# ---------------------------------------------------------------------------
# The engine.
# ---------------------------------------------------------------------------


def join_values(a: Value, b: Value) -> Value:
    """Lattice join: tag-set union (may-analysis)."""
    if not a:
        return b
    if not b:
        return a
    return a | b


def _join_env(a: Env, b: Env) -> Env:
    out: Env = dict(a)
    for name, value in b.items():
        out[name] = join_values(out.get(name, EMPTY), value)
    return out


def _join_defs(a: Defs, b: Defs) -> Defs:
    out: Defs = dict(a)
    for name, nodes in b.items():
        out[name] = out.get(name, frozenset()) | nodes
    return out


class DataflowEngine:
    """Forward abstract interpreter over one module.

    Walks the module scope and every function scope in program order,
    calling the domain's transfer functions.  Control flow is
    approximated the standard lint way: ``if``/``try``/``match`` fork
    and join environments, loop bodies execute twice (enough for
    loop-carried single-step facts), and nested functions are analyzed
    separately with parameter seeds (no closure propagation).

    Reaching definitions are recorded as a by-product: :attr:`uses`
    maps every loaded ``ast.Name`` to the set of statements whose
    assignment may reach it — the def-use chains the unit tests pin.
    """

    def __init__(self, ctx: ModuleContext, domain: Domain) -> None:
        self.ctx = ctx
        self.domain = domain
        domain.engine = self
        self.root = build_scope_tree(ctx.tree)
        self.dotted = dotted_module(ctx.module)
        self.scope: Scope = self.root
        #: ast.Name (Load) -> frozenset of reaching assignment statements.
        self.uses: dict[ast.Name, frozenset] = {}
        self._defs: Defs = {}

    # -- driving -------------------------------------------------------------

    def run(self) -> None:
        """Analyze the module scope, then every function scope."""
        for scope in iter_code_scopes(self.root):
            self.scope = scope
            env, defs = self._seed(scope)
            self._defs = defs
            if isinstance(scope.node, ast.Lambda):
                self._eval(scope.node.body, env)
            else:
                self._exec_block(scope.node.body, env)

    def _seed(self, scope: Scope) -> tuple[Env, Defs]:
        env: Env = {}
        defs: Defs = {}
        node = scope.node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            arguments = node.args
            params = list(arguments.posonlyargs) + list(arguments.args) + list(arguments.kwonlyargs)
            for extra in (arguments.vararg, arguments.kwarg):
                if extra is not None:
                    params.append(extra)
            for arg in params:
                env[arg.arg] = self.domain.param(scope, arg.arg, arg.annotation)
                defs[arg.arg] = frozenset({arg})
        return env, defs

    # -- statements ----------------------------------------------------------

    def _exec_block(self, stmts: list, env: Env) -> Env:
        for stmt in stmts:
            env = self._exec(stmt, env)
        return env

    def _exec(self, stmt: ast.stmt, env: Env) -> Env:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            # Decorators and defaults evaluate here; the body is its own
            # scope (classes: body executes inline below).
            for dec in stmt.decorator_list:
                self._eval(dec, env)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for default in list(stmt.args.defaults) + [d for d in stmt.args.kw_defaults if d]:
                    self._eval(default, env)
            else:
                for basecls in stmt.bases:
                    self._eval(basecls, env)
                self._exec_block(stmt.body, dict(env))
            self._bind_name(stmt.name, EMPTY, stmt, env)
            return env
        if isinstance(stmt, ast.Assign):
            value = self._eval(stmt.value, env)
            for target in stmt.targets:
                self._assign(target, value, stmt, env)
            return env
        if isinstance(stmt, ast.AnnAssign):
            value = self._eval(stmt.value, env) if stmt.value is not None else EMPTY
            self._assign(stmt.target, value, stmt, env)
            return env
        if isinstance(stmt, ast.AugAssign):
            current = self._eval_load_of_target(stmt.target, env)
            value = self._eval(stmt.value, env)
            combined = self.domain.binop(
                ast.BinOp(left=stmt.target, op=stmt.op, right=stmt.value), current, value
            )
            self._assign(stmt.target, combined, stmt, env, aug=True)
            return env
        if isinstance(stmt, (ast.Expr, ast.Return)) and getattr(stmt, "value", None) is not None:
            self._eval(stmt.value, env)
            return env
        if isinstance(stmt, ast.If):
            self._eval(stmt.test, env)
            then_env, then_defs = self._branch(stmt.body, env)
            else_env, else_defs = self._branch(stmt.orelse, env)
            self._defs = _join_defs(then_defs, else_defs)
            return _join_env(then_env, else_env)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            iterable = self._eval(stmt.iter, env)
            element = self.domain.iterate(stmt.iter, iterable)
            self._assign(stmt.target, element, stmt, env)
            env = self._loop(stmt.body, env)
            return self._exec_block(stmt.orelse, env)
        if isinstance(stmt, ast.While):
            self._eval(stmt.test, env)
            env = self._loop(stmt.body, env)
            return self._exec_block(stmt.orelse, env)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                value = self._eval(item.context_expr, env)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, value, stmt, env)
            return self._exec_block(stmt.body, env)
        if isinstance(stmt, ast.Try) or (hasattr(ast, "TryStar") and isinstance(stmt, ast.TryStar)):
            env = self._exec_block(stmt.body, env)
            merged, merged_defs = env, self._defs
            for handler in stmt.handlers:
                handler_env, handler_defs = self._branch(handler.body, env, bind=handler.name)
                merged = _join_env(merged, handler_env)
                merged_defs = _join_defs(merged_defs, handler_defs)
            self._defs = merged_defs
            env = self._exec_block(stmt.orelse, merged)
            return self._exec_block(stmt.finalbody, env)
        if hasattr(ast, "Match") and isinstance(stmt, ast.Match):
            self._eval(stmt.subject, env)
            merged, merged_defs = env, self._defs
            for case in stmt.cases:
                case_env, case_defs = self._branch(case.body, env)
                merged = _join_env(merged, case_env)
                merged_defs = _join_defs(merged_defs, case_defs)
            self._defs = merged_defs
            return merged
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    env.pop(target.id, None)
            return env
        if isinstance(stmt, (ast.Raise, ast.Assert)):
            for value in (getattr(stmt, "exc", None), getattr(stmt, "cause", None),
                          getattr(stmt, "test", None), getattr(stmt, "msg", None)):
                if value is not None:
                    self._eval(value, env)
            return env
        if isinstance(stmt, (ast.Global, ast.Nonlocal)):
            for name in stmt.names:
                env[name] = EMPTY
            return env
        # Import/Pass/Break/Continue and anything exotic: no dataflow effect.
        return env

    def _branch(self, stmts: list, env: Env, bind: str | None = None) -> tuple[Env, Defs]:
        saved_defs = self._defs
        self._defs = dict(saved_defs)
        branch_env = dict(env)
        if bind:
            branch_env[bind] = EMPTY
        branch_env = self._exec_block(stmts, branch_env)
        branch_defs = self._defs
        self._defs = saved_defs
        return branch_env, branch_defs

    def _loop(self, body: list, env: Env) -> Env:
        """Run a loop body twice and join with the no-iterations path."""
        pre_env, pre_defs = dict(env), dict(self._defs)
        once = self._exec_block(body, env)
        twice = self._exec_block(body, once)
        self._defs = _join_defs(pre_defs, self._defs)
        return _join_env(pre_env, twice)

    # -- assignment targets --------------------------------------------------

    def _assign(self, target: ast.expr, value: Value, stmt: ast.stmt, env: Env, aug: bool = False) -> None:
        if isinstance(target, ast.Name):
            self._bind_name(target.id, value, stmt, env)
        elif isinstance(target, (ast.Tuple, ast.List)):
            element = self.domain.unpack(value)
            for elt in target.elts:
                self._assign(elt, element, stmt, env)
        elif isinstance(target, ast.Starred):
            self._assign(target.value, value, stmt, env)
        elif isinstance(target, ast.Attribute):
            base = self._eval(target.value, env)
            self.domain.store_attr(stmt, target, base, value, aug)
        elif isinstance(target, ast.Subscript):
            base = self._eval(target.value, env)
            self._eval(target.slice, env)
            self.domain.store_subscript(stmt, target, base, value, aug)

    def _bind_name(self, name: str, value: Value, stmt: ast.AST, env: Env) -> None:
        env[name] = value
        self._defs[name] = frozenset({stmt})

    def _eval_load_of_target(self, target: ast.expr, env: Env) -> Value:
        """Current value of an aug-assignment target read as a load."""
        if isinstance(target, ast.Name):
            return env.get(target.id, EMPTY) or self.domain.name_fallback(target.id)
        if isinstance(target, ast.Attribute):
            base = self._eval(target.value, env)
            return self.domain.attribute_load(target, base, self.ctx.imports.resolve(target))
        if isinstance(target, ast.Subscript):
            base = self._eval(target.value, env)
            return self.domain.subscript_load(target, base)
        return EMPTY

    # -- expressions ---------------------------------------------------------

    def resolve_call(self, func: ast.expr) -> str | None:
        """Canonical dotted name of a callee: imports first, then local defs."""
        resolved = self.ctx.imports.resolve(func)
        if resolved is not None:
            return resolved
        if isinstance(func, ast.Name) and self.scope.lookup_local_def(func.id) is not None:
            return f"{self.dotted}.{func.id}"
        return None

    def _eval(self, node: ast.expr, env: Env) -> Value:
        domain = self.domain
        if isinstance(node, ast.Name):
            # Union, not overwrite: the loop fixpoint pass re-evaluates
            # the same node and must accumulate loop-carried defs.
            self.uses[node] = self.uses.get(node, frozenset()) | self._defs.get(node.id, frozenset())
            if node.id in env:
                return env[node.id]
            return domain.name_fallback(node.id)
        if isinstance(node, ast.Constant):
            return domain.constant(node)
        if isinstance(node, ast.Call):
            base = EMPTY
            if isinstance(node.func, ast.Attribute):
                base = self._eval(node.func.value, env)
            args = [(arg, self._eval(arg, env)) for arg in node.args]
            keywords = [(kw.arg, kw.value, self._eval(kw.value, env)) for kw in node.keywords]
            return domain.call(node, self.resolve_call(node.func), base, args, keywords)
        if isinstance(node, ast.Attribute):
            base = self._eval(node.value, env)
            return domain.attribute_load(node, base, self.ctx.imports.resolve(node))
        if isinstance(node, ast.Subscript):
            base = self._eval(node.value, env)
            self._eval(node.slice, env)
            return domain.subscript_load(node, base)
        if isinstance(node, ast.BinOp):
            left = self._eval(node.left, env)
            right = self._eval(node.right, env)
            return domain.binop(node, left, right)
        if isinstance(node, ast.UnaryOp):
            return self._eval(node.operand, env)
        if isinstance(node, ast.BoolOp):
            out = EMPTY
            for value in node.values:
                out = join_values(out, self._eval(value, env))
            return out
        if isinstance(node, ast.Compare):
            left = self._eval(node.left, env)
            pairs = []
            for op, comparator in zip(node.ops, node.comparators):
                right = self._eval(comparator, env)
                pairs.append((op, left, right))
                left = right
            domain.compare(node, pairs)
            return EMPTY
        if isinstance(node, ast.IfExp):
            self._eval(node.test, env)
            return join_values(self._eval(node.body, env), self._eval(node.orelse, env))
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            out = EMPTY
            for elt in node.elts:
                out = join_values(out, self._eval(elt, env))
            return out
        if isinstance(node, ast.Dict):
            out = EMPTY
            for key, value in zip(node.keys, node.values):
                if key is not None:
                    self._eval(key, env)
                out = join_values(out, self._eval(value, env))
            return out
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            comp_env = dict(env)
            for gen in node.generators:
                iterable = self._eval(gen.iter, comp_env)
                self._assign(gen.target, self.domain.iterate(gen.iter, iterable), node, comp_env)
                for cond in gen.ifs:
                    self._eval(cond, comp_env)
            if isinstance(node, ast.DictComp):
                self._eval(node.key, comp_env)
                return self._eval(node.value, comp_env)
            return self._eval(node.elt, comp_env)
        if isinstance(node, ast.NamedExpr):
            value = self._eval(node.value, env)
            self._bind_name(node.target.id, value, node, env)
            return value
        if isinstance(node, ast.Starred):
            return self._eval(node.value, env)
        if isinstance(node, (ast.Await, ast.YieldFrom)):
            return self._eval(node.value, env) if node.value is not None else EMPTY
        if isinstance(node, ast.Yield):
            if node.value is not None:
                self._eval(node.value, env)
            return EMPTY
        if isinstance(node, ast.JoinedStr):
            out = EMPTY
            for value in node.values:
                out = join_values(out, self._eval(value, env))
            return out
        if isinstance(node, ast.FormattedValue):
            return self._eval(node.value, env)
        if isinstance(node, ast.Slice):
            for part in (node.lower, node.upper, node.step):
                if part is not None:
                    self._eval(part, env)
            return EMPTY
        if isinstance(node, ast.Lambda):
            for default in list(node.args.defaults) + [d for d in node.args.kw_defaults if d]:
                self._eval(default, env)
            return EMPTY
        return EMPTY


# ---------------------------------------------------------------------------
# Check adapter.
# ---------------------------------------------------------------------------


class DataflowCheck(Check, Domain):
    """A lint check implemented as a dataflow domain.

    Subclasses override :class:`Domain` hooks and call :meth:`report`
    from them; :meth:`run` drives the engine and yields de-duplicated
    findings (the loop fixpoint pass re-executes bodies, so the same
    violation can be reported twice at the same node).
    """

    def __init__(self) -> None:
        self._found: dict[tuple, Finding] = {}
        self.ctx: ModuleContext | None = None

    def report(self, message: str, node: ast.AST) -> None:
        """Record one finding at ``node`` (idempotent per site+message)."""
        assert self.ctx is not None
        finding = self.ctx.finding(self.code, message, node)
        self._found.setdefault((finding.line, finding.col, finding.message), finding)

    def run(self, ctx: ModuleContext) -> Iterator[Finding]:
        self.ctx = ctx
        self._found.clear()
        DataflowEngine(ctx, self).run()
        yield from self._found.values()


# ---------------------------------------------------------------------------
# Def-use entry point (used by the unit tests and future checks).
# ---------------------------------------------------------------------------


def def_use(ctx: ModuleContext) -> dict[tuple[str, int], tuple[int, ...]]:
    """Def-use chains of one module, in line-number form.

    Returns ``{(name, use_line): (def_line, ...)}`` for every loaded
    name that has at least one reaching definition — a compact shape
    that unit tests can assert against without touching AST nodes.
    """
    engine = DataflowEngine(ctx, Domain())
    engine.run()
    chains: dict[tuple[str, int], tuple[int, ...]] = {}
    for use, defs in engine.uses.items():
        if not defs:
            continue
        key = (use.id, use.lineno)
        lines = tuple(sorted({getattr(d, "lineno", 0) for d in defs}))
        chains[key] = tuple(sorted(set(chains.get(key, ())) | set(lines)))
    return chains
