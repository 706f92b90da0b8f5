"""Interprocedural taint analysis (rules ``RPR601``–``RPR603``).

Three taints matter to the paper's byte-identity promise:

* ``rng`` — shared-state ``random.*`` draws, unseeded
  ``random.Random()``, and module-level ``numpy.random`` draws
  (``default_rng(seed)`` and seeded generators stay legal),
* ``clock`` — ``time.time()``/``datetime.now()``-family wall-clock and
  entropy reads (``perf_counter``/``monotonic`` feed metrics, not
  results, and stay legal),
* ``unordered`` — functions whose return/yield values are built by
  iterating a ``set``/``frozenset`` without ``sorted()``.

A function *sources* a taint when its own body (including nested
functions) exhibits it.  Taint then propagates backwards over the call
graph: every function that can reach a source through resolved call
edges is tainted.  A violation is a **sink** function — one defined in
the digest/trace/ordered-output modules (``dbms/batch.py``,
``dbms/refine.py``, ``trace/recorder.py``, ``reporting/``,
``shard/sharded.py``) — whose
taint arrives through at least one call hop.  Same-function uses are
left to the per-file rules (``RPR101``–``RPR103``), which already
police the deterministic paths; the flow rules exist for exactly the
flows those cannot see.

Chains are reconstructed deterministically (BFS, lexicographic
tie-break) so findings — and therefore baselines — are stable across
runs and ``--jobs`` values.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

from repro.lint.findings import Finding
from repro.lint.flow.graph import (
    CallSite,
    FunctionInfo,
    PackageGraph,
    dotted_name,
    resolve_alias,
)
from repro.lint.rules import get_rule

TAINT_RNG = "rng"
TAINT_CLOCK = "clock"
TAINT_UNORDERED = "unordered"

#: Taint kind -> the rule code that reports it at a sink.
TAINT_CODES = {
    TAINT_RNG: "RPR601",
    TAINT_CLOCK: "RPR602",
    TAINT_UNORDERED: "RPR603",
}

#: Module paths (package-relative) whose functions are taint sinks:
#: they compute digests, record traces, or build ordered output.
SINK_PKGPATHS: tuple[str, ...] = (
    "dbms/batch.py",
    "dbms/refine.py",
    "trace/recorder.py",
    "reporting/",
    "shard/sharded.py",
)

#: Shared-state ``random`` module functions (mirrors the RPR101 set).
_RANDOM_FNS = frozenset({
    "random", "randint", "randrange", "uniform", "choice", "choices",
    "shuffle", "sample", "gauss", "normalvariate", "expovariate",
    "betavariate", "triangular", "getrandbits", "seed",
    "lognormvariate", "paretovariate", "vonmisesvariate",
    "weibullvariate",
})

#: Module-level ``numpy.random`` draws (global-generator state).
_NUMPY_RANDOM_FNS = frozenset({
    "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "choice", "shuffle", "permutation", "normal", "uniform",
    "standard_normal", "seed", "bytes",
})

#: Wall-clock and entropy reads (mirrors the RPR102 set).
_WALL_CLOCK = (
    "time.time",
    "time.time_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "date.today",
    "os.urandom",
    "uuid.uuid1",
    "uuid.uuid4",
)


@dataclass(frozen=True, slots=True)
class TaintSource:
    """Where a taint enters the program."""

    qualname: str             # the sourcing function
    kind: str                 # TAINT_RNG / TAINT_CLOCK / TAINT_UNORDERED
    detail: str               # e.g. "random.random()" — message text
    line: int


def _matches(resolved: str, banned: str) -> bool:
    return resolved == banned or resolved.endswith("." + banned)


def _source_calls(info: FunctionInfo) -> Iterator[tuple[str, str, int]]:
    """(kind, detail, line) for every taint-sourcing call in a function."""
    imports = info.module.imports
    for node in ast.walk(info.node):
        if not isinstance(node, ast.Call):
            continue
        dotted = dotted_name(node.func)
        if dotted is None:
            continue
        resolved = resolve_alias(dotted, imports)
        if resolved == "random.Random" and not node.args:
            yield TAINT_RNG, "unseeded random.Random()", node.lineno
            continue
        head, _, tail = resolved.partition(".")
        if head == "random" and tail in _RANDOM_FNS:
            yield TAINT_RNG, f"random.{tail}()", node.lineno
            continue
        if resolved.startswith("numpy.random."):
            fn = resolved.rsplit(".", 1)[-1]
            if fn in _NUMPY_RANDOM_FNS:
                yield TAINT_RNG, f"numpy.random.{fn}()", node.lineno
                continue
            if fn == "default_rng" and not node.args and not node.keywords:
                yield (TAINT_RNG, "unseeded numpy.random.default_rng()",
                       node.lineno)
                continue
        for banned in _WALL_CLOCK:
            if _matches(resolved, banned):
                yield TAINT_CLOCK, f"{banned}()", node.lineno
                break


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return dotted_name(node.func) in ("set", "frozenset")
    return False


def _unordered_iteration(info: FunctionInfo) -> int | None:
    """Line of an unsorted set iteration feeding this function's output.

    Fires only when the function actually returns or yields a value —
    a set iterated purely for membership side effects orders nothing.
    """
    produces = any(
        (isinstance(n, ast.Return) and n.value is not None)
        or isinstance(n, (ast.Yield, ast.YieldFrom))
        for n in ast.walk(info.node)
    )
    if not produces:
        return None
    for node in ast.walk(info.node):
        if isinstance(node, ast.For) and _is_set_expr(node.iter):
            return node.iter.lineno
        if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            for gen in node.generators:
                if _is_set_expr(gen.iter):
                    return gen.iter.lineno
        if (isinstance(node, ast.Call)
                and dotted_name(node.func) in ("list", "tuple")
                and node.args and _is_set_expr(node.args[0])):
            return node.lineno
    return None


def find_taint_sources(graph: PackageGraph) -> dict[str, list[TaintSource]]:
    """Taint sources per function qualname (deterministic order)."""
    sources: dict[str, list[TaintSource]] = {}
    for qual in sorted(graph.functions):
        info = graph.functions[qual]
        found: list[TaintSource] = []
        seen_kinds: set[tuple[str, str]] = set()
        for kind, detail, line in _source_calls(info):
            if (kind, detail) in seen_kinds:
                continue
            seen_kinds.add((kind, detail))
            found.append(TaintSource(qualname=qual, kind=kind,
                                     detail=detail, line=line))
        line = _unordered_iteration(info)
        if line is not None:
            found.append(TaintSource(
                qualname=qual, kind=TAINT_UNORDERED,
                detail="unsorted set iteration", line=line))
        if found:
            sources[qual] = found
    return sources


@dataclass(slots=True)
class _Reach:
    """How a function reaches a taint source of one kind."""

    source: TaintSource
    hop: CallSite | None      # the outgoing call that leads source-ward
    depth: int


def _propagate(graph: PackageGraph,
               sources: dict[str, list[TaintSource]],
               kind: str) -> dict[str, _Reach]:
    """Multi-source BFS over reverse call edges for one taint kind."""
    reach: dict[str, _Reach] = {}
    frontier: list[str] = []
    for qual in sorted(sources):
        for source in sources[qual]:
            if source.kind == kind and qual not in reach:
                reach[qual] = _Reach(source=source, hop=None, depth=0)
                frontier.append(qual)
    depth = 0
    while frontier:
        depth += 1
        next_frontier: list[str] = []
        for callee in frontier:
            for site in sorted(graph.callers.get(callee, []),
                               key=lambda s: (s.caller, s.line, s.col)):
                if site.caller in reach:
                    continue
                reach[site.caller] = _Reach(
                    source=reach[callee].source, hop=site, depth=depth)
                next_frontier.append(site.caller)
        frontier = sorted(set(next_frontier))
    return reach


def _chain(graph: PackageGraph, reach: dict[str, _Reach],
           start: str) -> tuple[list[str], CallSite]:
    """The function chain from ``start`` to the source, plus first hop."""
    names = [start]
    first_hop = reach[start].hop
    assert first_hop is not None
    current = start
    while reach[current].hop is not None:
        hop = reach[current].hop
        assert hop is not None
        current = hop.callee
        names.append(current)
    return names, first_hop


def _shorten(graph: PackageGraph, qualname: str) -> str:
    prefix = graph.package + "."
    return qualname[len(prefix):] if qualname.startswith(prefix) \
        else qualname


def check_taint_flows(graph: PackageGraph,
                      sinks: tuple[str, ...] = SINK_PKGPATHS
                      ) -> list[Finding]:
    """RPR601–603: taint reaching a sink function across call hops."""
    sources = find_taint_sources(graph)
    findings: list[Finding] = []
    sink_functions = list(graph.functions_in(sinks))
    for kind in (TAINT_RNG, TAINT_CLOCK, TAINT_UNORDERED):
        code = TAINT_CODES[kind]
        rule = get_rule(code)
        reach = _propagate(graph, sources, kind)
        for info in sink_functions:
            entry = reach.get(info.qualname)
            if entry is None or entry.hop is None:
                continue  # untainted, or sourced in-function (per-file rules)
            names, first_hop = _chain(graph, reach, info.qualname)
            source = entry.source
            chain = " -> ".join(_shorten(graph, name) for name in names)
            findings.append(Finding(
                path=first_hop.path,
                line=first_hop.line,
                col=first_hop.col,
                code=code,
                severity=rule.severity,
                message=(f"{source.detail} reaches sink "
                         f"{_shorten(graph, info.qualname)}() via "
                         f"{chain}; {_KIND_WHY[kind]}"),
            ))
    findings.sort()
    return findings


_KIND_WHY = {
    TAINT_RNG: ("digests/traces must be a pure function of the inputs "
                "— thread a seeded random.Random through instead"),
    TAINT_CLOCK: ("digests/traces must not depend on when the run "
                  "happened — inject the sim clock instead"),
    TAINT_UNORDERED: ("set iteration order varies across runs — "
                      "sorted() the set before it shapes output"),
}


__all__ = [
    "SINK_PKGPATHS",
    "TAINT_CLOCK",
    "TAINT_CODES",
    "TAINT_RNG",
    "TAINT_UNORDERED",
    "TaintSource",
    "check_taint_flows",
    "find_taint_sources",
]
