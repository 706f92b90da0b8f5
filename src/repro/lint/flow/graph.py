"""Name resolution and the call graph the whole-program rules run over.

The name helpers — :func:`dotted_name`, :func:`module_import_map`,
:func:`resolve_alias`, :func:`matches` — are the only copies in the
lint package; per-file checkers use them too.

:func:`build_graph` takes the parsed modules of one program (a package
root's modules, or a lone file) and produces a :class:`PackageGraph`:

* a function table (qualified name -> :class:`FunctionInfo`) covering
  module-level functions and class methods — nested functions and
  lambdas are analyzed as part of their enclosing function, which is
  the granularity taint propagation works at,
* resolved intra-program call edges (:class:`CallSite`), built by
  rewriting each call's dotted name through the module's import map
  (including relative imports) and then resolving it against the
  program's symbol table, following ``__init__``-style re-export chains.

Resolution is deliberately an *under*-approximation: a call the
resolver cannot attribute to a program function simply produces no
edge.  Rules built on the graph therefore miss dynamic dispatch, but
never invent edges — findings stay precise enough to gate CI.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.lint.rules import ModuleContext

#: How many re-export hops a dotted name may take before resolution
#: gives up (guards against pathological import cycles).
_MAX_REEXPORT_HOPS = 8


@dataclass(slots=True)
class FunctionInfo:
    """One module-level function or class method."""

    qualname: str             # "repro.dbms.batch.BatchQueryEngine.run"
    module: ModuleContext
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_name: str | None = None


@dataclass(slots=True)
class CallSite:
    """One resolved intra-program call edge."""

    caller: str               # qualname of the calling function
    callee: str               # qualname of the called function
    path: str                 # repo-relative path of the call site
    line: int
    col: int
    node: ast.Call            # the call expression itself


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def module_import_map(module_name: str, tree: ast.Module) -> dict[str, str]:
    """Local name -> canonical dotted origin, relative imports resolved."""
    mapping: dict[str, str] = {}
    package = module_name.rsplit(".", 1)[0] if "." in module_name \
        else module_name
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    mapping[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    mapping[head] = head
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                # Relative import: climb from the containing package.
                parts = package.split(".")
                climb = node.level - 1
                if climb >= len(parts):
                    continue
                anchor = parts[:len(parts) - climb]
                base = ".".join(anchor + ([base] if base else []))
            if not base:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                mapping[local] = f"{base}.{alias.name}"
    return mapping


def resolve_alias(dotted: str, imports: dict[str, str]) -> str:
    """Rewrite ``dotted``'s head through the module's import aliases."""
    head, _, rest = dotted.partition(".")
    if head in imports:
        origin = imports[head]
        return f"{origin}.{rest}" if rest else origin
    return dotted


def matches(resolved: str, banned: str) -> bool:
    """Whether an import-resolved dotted name is ``banned`` (or ends
    with it: ``datetime.datetime.now`` is ``datetime.now``)."""
    return resolved == banned or resolved.endswith("." + banned)


class PackageGraph:
    """One program: modules, functions, and resolved call edges."""

    def __init__(self, package: str) -> None:
        self.package = package
        self.modules: dict[str, ModuleContext] = {}
        self.functions: dict[str, FunctionInfo] = {}
        #: class qualname -> method name -> function qualname
        self.methods: dict[str, dict[str, str]] = {}
        self.callers: dict[str, list[CallSite]] = {}

    # -- construction -------------------------------------------------

    def add_module(self, info: ModuleContext) -> None:
        self.modules[info.name] = info
        for stmt in info.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{info.name}.{stmt.name}"
                self.functions[qual] = FunctionInfo(
                    qualname=qual, module=info, node=stmt)
            elif isinstance(stmt, ast.ClassDef):
                class_qual = f"{info.name}.{stmt.name}"
                table = self.methods.setdefault(class_qual, {})
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                        qual = f"{class_qual}.{sub.name}"
                        self.functions[qual] = FunctionInfo(
                            qualname=qual, module=info, node=sub,
                            class_name=stmt.name)
                        table[sub.name] = qual

    def link(self) -> None:
        """Resolve call edges for every function (call after modules)."""
        for qual in sorted(self.functions):
            info = self.functions[qual]
            for call in ast.walk(info.node):
                if not isinstance(call, ast.Call):
                    continue
                callee = self._resolve_call(info, call)
                if callee is None:
                    continue
                self.callers.setdefault(callee, []).append(CallSite(
                    caller=qual, callee=callee,
                    path=info.module.relpath,
                    line=call.lineno, col=call.col_offset + 1, node=call,
                ))

    # -- resolution ---------------------------------------------------

    def short(self, qualname: str) -> str:
        """``qualname`` without the program's root package (messages)."""
        prefix = self.package + "."
        return qualname[len(prefix):] if qualname.startswith(prefix) \
            else qualname

    def resolve_symbol(self, dotted: str, hops: int = 0) -> str | None:
        """Resolve a canonical dotted name to a function qualname.

        Handles direct functions, class methods, and re-exports:
        ``repro.trace.get_recorder`` resolves through
        ``trace/__init__.py``'s own import of the symbol.
        """
        if hops > _MAX_REEXPORT_HOPS:
            return None
        if dotted in self.functions:
            return dotted
        # Class method: longest prefix that is a known class.
        prefix, _, attr = dotted.rpartition(".")
        if prefix in self.methods and attr in self.methods[prefix]:
            return self.methods[prefix][attr]
        # Re-export: the longest module prefix re-imports the remainder.
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            module = self.modules.get(".".join(parts[:cut]))
            if module is None:
                continue
            remainder = parts[cut:]
            if remainder[0] in module.imports:
                target = module.imports[remainder[0]]
                rest = ".".join(remainder[1:])
                full = f"{target}.{rest}" if rest else target
                return self.resolve_symbol(full, hops + 1)
            return None
        return None

    def _resolve_call(self, info: FunctionInfo,
                      call: ast.Call) -> str | None:
        func = call.func
        module = info.module
        # self.method() / cls.method() inside a class.
        if (info.class_name is not None
                and isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in ("self", "cls")):
            class_qual = f"{module.name}.{info.class_name}"
            return self.methods.get(class_qual, {}).get(func.attr)
        dotted = dotted_name(func)
        if dotted is None:
            return None
        head = dotted.split(".", 1)[0]
        if head in module.imports:
            return self.resolve_symbol(resolve_alias(dotted, module.imports))
        # Unimported bare name: a sibling defined in this module.
        return self.resolve_symbol(f"{module.name}.{dotted}")


def build_graph(modules: list[ModuleContext]) -> PackageGraph:
    """The call graph of one program's parsed modules."""
    package = modules[0].name.split(".")[0] if modules else ""
    graph = PackageGraph(package)
    for module in modules:
        graph.add_module(module)
    graph.link()
    return graph


__all__ = [
    "CallSite",
    "FunctionInfo",
    "PackageGraph",
    "build_graph",
    "dotted_name",
    "matches",
    "module_import_map",
    "resolve_alias",
]
