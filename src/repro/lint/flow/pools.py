"""The pool rule's detector (``RPR201``): every task a process pool
receives must pickle.

A lambda, a closure-local function or a bound method of a lock-holding
object crashes only at submit time, on a parallel run, on a multi-core
box.  For every ``submit``/``map`` call on a pool/executor receiver in
any function of the program, each positional argument is classified:

* lambdas and names bound to lambdas or nested ``def``s in the
  enclosing function are flagged; ``functools.partial`` is unwrapped,
* bound methods (``self.method`` / ``obj.method`` with a resolvable
  class) are flagged when the class visibly stores unpicklable state:
  an attribute assigned from ``threading.Lock()``, ``open()``,
  ``socket.socket()`` and friends,
* an argument that is a *parameter* of the enclosing function is
  traced to every resolved call site, and what each caller actually
  passes is classified there — so the finding lands on the caller's
  expression, where the fix belongs.

Everything unresolvable is silently trusted — the pass never invents
an edge, so it reports only hazards it can prove from the source.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.findings import Finding
from repro.lint.flow.graph import (
    FunctionInfo,
    PackageGraph,
    dotted_name,
    resolve_alias,
)

CODE = "RPR201"

#: Constructors whose results do not pickle; a class storing one on
#: ``self`` makes its bound methods unsubmittable to a fork pool.
_UNPICKLABLE_CTORS = (
    "threading.Lock",
    "threading.RLock",
    "threading.Condition",
    "threading.Event",
    "threading.Semaphore",
    "threading.BoundedSemaphore",
    "multiprocessing.Lock",
    "multiprocessing.RLock",
    "open",
    "io.open",
    "io.StringIO",
    "io.BytesIO",
    "socket.socket",
    "sqlite3.connect",
    "subprocess.Popen",
)


def _pool_task_calls(info: FunctionInfo) -> Iterator[ast.Call]:
    """``submit``/``map`` calls on pool/executor receivers in a function."""
    for node in ast.walk(info.node):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("submit", "map")):
            continue
        receiver = (dotted_name(node.func.value) or "").lower()
        if "pool" in receiver or "executor" in receiver:
            yield node


def _local_callables(info: FunctionInfo) -> frozenset[str]:
    """Names bound to nested ``def``s or lambdas inside ``info``."""
    names = set()
    for node in ast.walk(info.node):
        if node is not info.node and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign) and isinstance(node.value,
                                                         ast.Lambda):
            names.update(target.id for target in node.targets
                         if isinstance(target, ast.Name))
    return frozenset(names)


def _unpicklable_state(graph: PackageGraph,
                       class_qual: str) -> str | None:
    """The banned constructor a class stores on ``self``, if any."""
    entry = graph.classes.get(class_qual)
    if entry is None:
        return None
    module, node = entry
    for sub in ast.walk(node):
        if not (isinstance(sub, ast.Assign)
                and isinstance(sub.value, ast.Call)):
            continue
        stores_self = any(
            isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
            and t.value.id == "self" for t in sub.targets)
        dotted = dotted_name(sub.value.func)
        if not stores_self or dotted is None:
            continue
        resolved = resolve_alias(dotted, module.imports)
        if resolved in _UNPICKLABLE_CTORS:
            return resolved
    return None


def _local_instance_class(info: FunctionInfo, graph: PackageGraph,
                          name: str) -> str | None:
    """Class qualname when ``name = ClassName(...)`` binds in ``info``."""
    for node in ast.walk(info.node):
        if not (isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)):
            continue
        if not any(isinstance(t, ast.Name) and t.id == name
                   for t in node.targets):
            continue
        dotted = dotted_name(node.value.func)
        if dotted is None:
            continue
        resolved = resolve_alias(dotted, info.module.imports)
        for candidate in (resolved, f"{info.module.name}.{dotted}"):
            if candidate in graph.classes:
                return candidate
    return None


def _unwrap_partial(expr: ast.expr,
                    imports: dict[str, str]) -> ast.expr:
    """``functools.partial(f, ...)`` -> ``f`` (recursively)."""
    while isinstance(expr, ast.Call):
        dotted = dotted_name(expr.func)
        if dotted is None:
            break
        resolved = resolve_alias(dotted, imports)
        if resolved in ("functools.partial", "partial") and expr.args:
            expr = expr.args[0]
        else:
            break
    return expr


def _classify_argument(graph: PackageGraph, caller: FunctionInfo,
                       expr: ast.expr, where: str) -> Finding | None:
    """A finding when ``expr`` (passed by ``caller``) cannot pickle."""
    expr = _unwrap_partial(expr, caller.module.imports)
    by = graph.short(caller.qualname)
    message: str | None = None
    if isinstance(expr, ast.Lambda):
        message = (f"lambda passed by {by}() {where}; lambdas do not "
                   f"pickle — use a module-level function")
    elif isinstance(expr, ast.Name) and expr.id in _local_callables(caller):
        message = (f"closure-local callable {expr.id!r} passed by {by}() "
                   f"{where}; nested functions do not pickle — hoist it "
                   f"to module level")
    elif isinstance(expr, ast.Attribute) and isinstance(expr.value,
                                                        ast.Name):
        if expr.value.id == "self" and caller.class_name is not None:
            class_qual = f"{caller.module.name}.{caller.class_name}"
        else:
            class_qual = _local_instance_class(caller, graph, expr.value.id)
        banned = None if class_qual is None \
            else _unpicklable_state(graph, class_qual)
        if class_qual is not None and banned is not None:
            message = (f"bound method {graph.short(class_qual)}."
                       f"{expr.attr} {where}; the instance holds "
                       f"{banned}() state, which does not pickle")
    return None if message is None \
        else caller.module.finding(expr, CODE, message)


def check_pool_picklability(graph: PackageGraph) -> list[Finding]:
    """RPR201: unpicklable callables reaching pool submission points."""
    findings: set[Finding] = set()
    for qual in sorted(graph.functions):
        info = graph.functions[qual]
        params = info.param_names()
        for call in _pool_task_calls(info):
            pool_fn = call.func.attr \
                if isinstance(call.func, ast.Attribute) else "submit"
            for arg in call.args:
                task = _unwrap_partial(arg, info.module.imports)
                if not (isinstance(task, ast.Name) and task.id in params):
                    found = _classify_argument(
                        graph, info, task,
                        f"to {pool_fn}() on a process pool")
                    if found is not None:
                        findings.add(found)
                    continue
                # The task comes from a caller: classify what each
                # resolved caller actually passes, at the caller.
                index = params.index(task.id)
                for site in graph.callers.get(qual, []):
                    caller = graph.functions[site.caller]
                    passed = _argument_at(site.node, index, task.id)
                    found = None if passed is None else _classify_argument(
                        graph, caller, passed,
                        f"flows into {pool_fn}() on a process pool via "
                        f"a task parameter")
                    if found is not None:
                        findings.add(found)
    return sorted(findings)


def _argument_at(call: ast.Call, index: int,
                 name: str) -> ast.expr | None:
    """The caller-side expression for positional ``index`` / kw ``name``."""
    if index < len(call.args):
        arg = call.args[index]
        return None if isinstance(arg, ast.Starred) else arg
    for keyword in call.keywords:
        if keyword.arg == name:
            return keyword.value
    return None


__all__ = [
    "check_pool_picklability",
]
