"""The per-module rule pack, and the registry entries of the rest.

Code families (see :mod:`repro.lint.rules` for scoping):

* ``RPR1xx`` **determinism** — the sweep's kernel and the batched
  query engine promise byte-identical output; unseeded RNG, wall-clock
  reads, and set-iteration order reaching ``sim/``, ``exec/``,
  ``vec/``, the digest/trace/report modules or (for the clock) ``obs/``
  silently break that promise.  ``RPR101``–``RPR103`` are
  whole-program rules (:mod:`repro.lint.flow.taint`): they fire at any
  call depth.
* ``RPR3xx`` **numeric hygiene** — float ``==`` and mutable defaults
  corrupt the §3 cost algebra in ways tests rarely catch; ``vec/``
  kernels additionally ban per-element loops over arrays and
  narrower-than-float64 dtypes, which break the byte-identity promise.
* ``RPR4xx`` **API consistency** — ``__all__`` drift.
* ``RPR5xx`` **observability discipline** — span pairing, registry
  construction, and flight-recorder event discipline (DBMS/index
  modules serialize events through ``repro.trace``, never ad hoc).
* ``RPR9xx`` **suppression hygiene** — enforced by the engine itself.

Rules the engine enforces itself are registered here with
``check=None``, so they are documented and selectable like any other.
Checkers are pure functions from a :class:`ModuleContext` to an
iterator of findings; they never read the filesystem themselves (RPR401
asks the context for the modules a lazy table names).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.findings import SEVERITY_ERROR, SEVERITY_WARNING, Finding
from repro.lint.flow.graph import dotted_name, matches, resolve_alias
from repro.lint.rules import (
    ModuleContext,
    Rule,
    register,
    register_rule,
)


def _calls(ctx: ModuleContext) -> Iterator[tuple[ast.Call, str]]:
    """Every call in the module with its import-resolved dotted name."""
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            dotted = dotted_name(node.func)
            if dotted is not None:
                yield node, resolve_alias(dotted, ctx.imports)


def _is_float_operand(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    if isinstance(node, ast.UnaryOp):
        return _is_float_operand(node.operand)
    return isinstance(node, ast.Call) and dotted_name(node.func) == "float"


@register(
    "RPR301", "float-equality", SEVERITY_ERROR, "library",
    "no bare ==/!= against float literals or float() casts outside "
    "byte-identical assertion helpers",
)
def check_float_equality(ctx: ModuleContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for i, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if (_is_float_operand(operands[i])
                    or _is_float_operand(operands[i + 1])):
                yield ctx.finding(
                    node, "RPR301",
                    "bare float equality; use math.isclose / an explicit "
                    "tolerance, or suppress with a reason if the "
                    "comparison is genuinely byte-identical",
                )
                break


def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    return (isinstance(node, ast.Call)
            and dotted_name(node.func) in ("list", "dict", "set"))


@register(
    "RPR302", "mutable-default-arg", SEVERITY_ERROR, "everywhere",
    "no mutable default arguments ([]/{}/set()/list()/dict())",
)
def check_mutable_defaults(ctx: ModuleContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        defaults = list(node.args.defaults)
        defaults += [d for d in node.args.kw_defaults if d is not None]
        for default in defaults:
            if _is_mutable_default(default):
                name = getattr(node, "name", "<lambda>")
                yield ctx.finding(
                    default, "RPR302",
                    f"mutable default argument in {name!r}; defaults are "
                    f"evaluated once and shared across calls — default to "
                    f"None and construct inside",
                )


#: Attribute/method names that stream a NumPy array element by element.
_NUMPY_ELEMENT_ITERS = frozenset({"flat", "tolist", "ravel", "flatten"})

#: dtype spellings narrower than float64; the vec kernels promise
#: float64 parity with the scalar engines, so these are always wrong.
_NARROW_FLOAT_DTYPES = frozenset({
    "float16", "float32", "half", "single", "longdouble", "float128",
    "f2", "f4", "e",
})


def _iterates_numpy_elements(iter_node: ast.expr,
                             imports: dict[str, str]) -> bool:
    """Whether a loop's iterable walks a NumPy array per element."""
    if isinstance(iter_node, ast.Attribute):
        # for x in arr.flat: ...
        return iter_node.attr in _NUMPY_ELEMENT_ITERS
    if isinstance(iter_node, ast.Call):
        func = iter_node.func
        if (isinstance(func, ast.Attribute)
                and func.attr in _NUMPY_ELEMENT_ITERS):
            # for x in arr.tolist() / arr.ravel() / arr.flatten(): ...
            return True
        dotted = dotted_name(func)
        if dotted is not None:
            resolved = resolve_alias(dotted, imports)
            # for x in np.nditer(arr) / np.ndenumerate(arr): ...
            return resolved.startswith("numpy.")
    return False


def _narrow_dtype_spelling(node: ast.expr,
                           imports: dict[str, str]) -> str | None:
    """The narrow-float dtype ``node`` names, if it names one."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        spelling = node.value.lstrip("<>=")
        return node.value if spelling in _NARROW_FLOAT_DTYPES else None
    dotted = dotted_name(node)
    if dotted is None:
        return None
    resolved = resolve_alias(dotted, imports)
    tail = resolved.rsplit(".", 1)[-1]
    return dotted if tail in _NARROW_FLOAT_DTYPES else None


@register(
    "RPR304", "vec-kernel-hygiene", SEVERITY_ERROR, "vec",
    "vec/ kernels stay array-at-a-time in float64: no per-element "
    "Python loops over NumPy arrays, no narrower-than-float64 dtypes",
)
def check_vec_kernel_hygiene(ctx: ModuleContext) -> Iterator[Finding]:
    imports = ctx.imports
    for node in ast.walk(ctx.tree):
        iter_nodes: list[ast.expr] = []
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iter_nodes.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            iter_nodes.extend(gen.iter for gen in node.generators)
        for iter_node in iter_nodes:
            if _iterates_numpy_elements(iter_node, imports):
                yield ctx.finding(
                    node, "RPR304",
                    "per-element Python loop over a NumPy array defeats "
                    "the kernel's vectorization; use an array expression "
                    "(or np.nonzero + indexed assignment for scatters)",
                )
        if isinstance(node, ast.Call):
            for keyword in node.keywords:
                if keyword.arg != "dtype":
                    continue
                spelling = _narrow_dtype_spelling(keyword.value, imports)
                if spelling is not None:
                    yield ctx.finding(
                        keyword.value, "RPR304",
                        f"dtype {spelling!r} is narrower than float64; vec "
                        f"kernels promise byte-identical float64 results, "
                        f"so narrow floats silently break parity",
                    )


def _module_all(tree: ast.Module) -> tuple[ast.AST, list[str]] | None:
    """The module-level ``__all__`` list, if statically resolvable."""
    for stmt in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if not any(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in targets):
            continue
        if isinstance(value, (ast.List, ast.Tuple)) and all(
                isinstance(e, ast.Constant) and isinstance(e.value, str)
                for e in value.elts):
            return stmt, [e.value for e in value.elts
                          if isinstance(e, ast.Constant)]
        return stmt, []  # present but dynamic: declared, not checkable
    return None


def _bindings(body: list[ast.stmt], into: set[str]) -> bool:
    """Collect statically visible module-level names; False on ``*``."""
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            into.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name):
                        into.add(node.id)
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            if isinstance(stmt.target, ast.Name):
                into.add(stmt.target.id)
        elif isinstance(stmt, ast.Import):
            for alias in stmt.names:
                into.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(stmt, ast.ImportFrom):
            for alias in stmt.names:
                if alias.name == "*":
                    return False
                into.add(alias.asname or alias.name)
        elif isinstance(stmt, ast.If):
            # What only type checkers import is not bound at run time.
            checking = dotted_name(stmt.test) in ("TYPE_CHECKING",
                                              "typing.TYPE_CHECKING")
            if not checking and not _bindings(stmt.body, into):
                return False
            if not _bindings(stmt.orelse, into):
                return False
        elif isinstance(stmt, ast.Try):
            for block in (stmt.body, stmt.orelse, stmt.finalbody,
                          *[h.body for h in stmt.handlers]):
                if not _bindings(block, into):
                    return False
        elif isinstance(stmt, (ast.For, ast.While, ast.With)):
            if not _bindings(stmt.body, into):
                return False
    return True


def _lazy_table(tree: ast.Module) -> dict[str, ast.Constant]:
    """A PEP 562 module's literal ``name -> module`` table, keyed by name
    (values are the module-name nodes): every module-level dict of
    string constants, in a module that defines ``__getattr__``."""
    table: dict[str, ast.Constant] = {}
    if not any(isinstance(stmt, ast.FunctionDef)
               and stmt.name == "__getattr__" for stmt in tree.body):
        return table
    for stmt in tree.body:
        if not (isinstance(stmt, (ast.Assign, ast.AnnAssign))
                and isinstance(stmt.value, ast.Dict)):
            continue
        entries: dict[str, ast.Constant] = {}
        for key, value in zip(stmt.value.keys, stmt.value.values):
            if not (isinstance(key, ast.Constant) and isinstance(key.value, str)
                    and isinstance(value, ast.Constant)
                    and isinstance(value.value, str)):
                break
            entries[key.value] = value
        else:
            table.update(entries)
    return table


@register(
    "RPR401", "all-does-not-resolve", SEVERITY_ERROR, "everywhere",
    "every name listed in __all__ must resolve to a module-level "
    "binding, or to one in the module its lazy table maps it to",
)
def check_all_resolves(ctx: ModuleContext) -> Iterator[Finding]:
    declared = _module_all(ctx.tree)
    if declared is None:
        return
    stmt, names = declared
    bound: set[str] = set()
    if not _bindings(ctx.tree.body, bound):
        return  # star import: resolution is not statically decidable
    lazy = _lazy_table(ctx.tree)
    homes: dict[str, ast.Module | None] = {}
    for name in names:
        if name in bound:
            continue
        if name not in lazy:
            yield ctx.finding(
                stmt, "RPR401",
                f"__all__ lists {name!r} but the module defines no such "
                f"name",
            )
            continue
        node = lazy[name]
        home = node.value
        if home not in homes:
            homes[home] = ctx.module_tree(home)
        tree = homes[home]
        exported: set[str] = set()
        if tree is None:
            problem = "no such module is found"
        elif (not _bindings(tree.body, exported) or name in exported
              or name in _lazy_table(tree)):
            continue
        else:
            problem = "that module defines no such name"
        yield ctx.finding(
            node, "RPR401",
            f"__all__ lists {name!r}, which the lazy table maps to "
            f"{home!r}, but {problem}",
        )


@register(
    "RPR402", "missing-all", SEVERITY_WARNING, "library",
    "public library modules must declare __all__ (their import surface)",
)
def check_missing_all(ctx: ModuleContext) -> Iterator[Finding]:
    stem = ctx.relpath.rsplit("/", 1)[-1].removesuffix(".py")
    if stem.startswith("_") and stem != "__init__":
        return
    if _module_all(ctx.tree) is None:
        yield ctx.finding(
            ctx.tree, "RPR402",
            "public module defines no __all__; declare its import "
            "surface explicitly",
        )


@register(
    "RPR501", "span-not-context-managed", SEVERITY_ERROR,
    "library-not-obs",
    "span(...) results must be entered via `with` at the call site so "
    "enter/exit always pair (obs/ itself implements the machinery)",
)
def check_span_pairing(ctx: ModuleContext) -> Iterator[Finding]:
    managed: set[int] = set()
    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                managed.add(id(item.context_expr))
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = dotted_name(node.func)
        if dotted is None:
            continue
        if dotted != "span" and not dotted.endswith(".span"):
            continue
        if id(node) not in managed:
            yield ctx.finding(
                node, "RPR501",
                "span() call is not the context expression of a `with`; "
                "detached spans can exit out of order (or never)",
            )


@register(
    "RPR502", "direct-registry-construction", SEVERITY_ERROR,
    "library-not-obs",
    "no direct MetricsRegistry() construction outside obs/ (use "
    "use_registry()/observe(registry=True))",
)
def check_registry_construction(ctx: ModuleContext) -> Iterator[Finding]:
    for call, resolved in _calls(ctx):
        if resolved.rsplit(".", 1)[-1] == "MetricsRegistry":
            yield ctx.finding(
                call, "RPR502",
                "MetricsRegistry constructed directly; outside obs/ go "
                "through use_registry()/observe(registry=True) so the "
                "probe's registry slot stays process-coherent",
            )


@register(
    "RPR503", "ad-hoc-event-serialization", SEVERITY_ERROR, "dbms-index",
    "DBMS/index event emission must go through the flight recorder "
    "API (no ad-hoc json.dumps in dbms/ or index/ modules)",
)
def check_adhoc_event_writes(ctx: ModuleContext) -> Iterator[Finding]:
    for call, resolved in _calls(ctx):
        if matches(resolved, "json.dumps"):
            yield ctx.finding(
                call, "RPR503",
                "json.dumps in a dbms/index module; DBMS-visible events "
                "are serialized by the flight recorder — state them "
                "through probe().event(...) so traces stay "
                "schema-versioned and replayable",
            )


register_rule(Rule(
    code="RPR000", name="syntax-error", severity=SEVERITY_ERROR,
    scope="everywhere", check=None,
    description="the module must parse; a file that does not parse "
                "cannot be checked at all",
))

# The whole-program rules run over each program's call graph
# (repro.lint.flow), not one module at a time.
for _code, _name, _scope, _description in (
    ("RPR101", "unseeded-rng", "deterministic",
     "no shared-state random.*/numpy.random draws or unseeded "
     "random.Random()/default_rng() in deterministic paths, at any "
     "call depth"),
    ("RPR102", "wall-clock-read", "deterministic-or-obs",
     "no time.time()/datetime.now()/os.urandom()/uuid4() in "
     "deterministic paths or obs/, at any call depth (perf_counter/"
     "monotonic for metrics and spans are fine)"),
    ("RPR103", "unordered-set-iteration", "deterministic",
     "no iterating a set expression into ordered output in "
     "deterministic paths, at any call depth; wrap in sorted()"),
):
    register_rule(Rule(code=_code, name=_name, severity=SEVERITY_ERROR,
                       scope=_scope, description=_description, check=None))

# Suppression hygiene is enforced by the engine while it matches
# "repro: noqa" directives; the rules are registered here so they
# appear in --list-rules output, docs, and selection.
register_rule(Rule(
    code="RPR901", name="unknown-noqa-code", severity=SEVERITY_ERROR,
    scope="everywhere", check=None,
    description="# repro: noqa[CODE] must reference registered rule "
                "codes",
))
register_rule(Rule(
    code="RPR902", name="noqa-without-reason", severity=SEVERITY_ERROR,
    scope="everywhere", check=None,
    description="# repro: noqa[CODE] must carry a reason string",
))


__all__ = [
    "check_adhoc_event_writes",
    "check_all_resolves",
    "check_float_equality",
    "check_missing_all",
    "check_mutable_defaults",
    "check_registry_construction",
    "check_span_pairing",
    "check_vec_kernel_hygiene",
]
