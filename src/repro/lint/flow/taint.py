"""The determinism rules (``RPR101``–``RPR103``) at every call depth.

Three hazards break the byte-identity the sweep and the query answers
promise, and :func:`hazards` is the one detector for all of them:

* ``RPR101`` — shared-state ``random.*`` draws, unseeded
  ``random.Random()``, module-level ``numpy.random`` draws and unseeded
  ``numpy.random.default_rng()`` (seeded generators stay legal),
* ``RPR102`` — wall-clock and entropy reads (``time.time()``,
  ``datetime.now()``, ``os.urandom()``, ``uuid4()``, …);
  ``perf_counter``/``monotonic`` feed metrics and spans, not
  results, and stay legal,
* ``RPR103`` — iterating a ``set``/``frozenset`` expression in a
  ``for`` loop, a list/generator/dict comprehension or
  ``list()``/``tuple()`` without ``sorted()``.  This is the one
  definition of "unordered", whether or not the function returns what
  the loop builds.

A rule's scope is the modules its registration names (the
``deterministic`` tag, plus ``obs/`` for ``RPR102``).  At depth 0 the
detector runs over each in-scope module, module-level code included,
and reports the hazard where it is.  At depth ≥ 1 it runs over every
function of the program; each hazard propagates backwards over the
call graph, and every in-scope function it reaches through at least
one call hop is reported at its first hop, with the chain spelled out.
Chains are reconstructed deterministically (BFS, lexicographic
tie-break).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Collection, Iterator

from repro.lint.findings import Finding
from repro.lint.flow.graph import (
    CallSite,
    PackageGraph,
    dotted_name,
    matches,
    resolve_alias,
)
from repro.lint.rules import get_rule

RNG, CLOCK, UNORDERED = "RPR101", "RPR102", "RPR103"

#: Module-level ``random`` functions that draw from (or reseed) the
#: shared global generator.
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

#: Wall-clock and entropy reads.
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

#: Why each hazard matters; every finding's message ends with it.
_WHY = {
    RNG: ("results must be a pure function of the inputs — draw from "
          "a seeded random.Random (or numpy Generator) instead"),
    CLOCK: ("results and spans must not depend on when the run "
            "happened — use perf_counter/monotonic for metrics, or "
            "inject the sim clock"),
    UNORDERED: ("set iteration order varies across runs — sorted() the "
                "set before it shapes output"),
}

_UNSORTED = "unsorted set iteration"


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return dotted_name(node.func) in ("set", "frozenset")
    return False


def _call_hazard(call: ast.Call,
                 imports: dict[str, str]) -> tuple[str, str] | None:
    """(code, detail) when ``call`` is a hazard."""
    dotted = dotted_name(call.func)
    if dotted is None:
        return None
    if dotted in ("list", "tuple"):
        if call.args and _is_set_expr(call.args[0]):
            return UNORDERED, _UNSORTED
        return None
    resolved = resolve_alias(dotted, imports)
    if resolved == "random.Random":
        return None if call.args else (RNG, "unseeded random.Random()")
    head, _, tail = resolved.partition(".")
    if head == "random" and tail in _RANDOM_FNS:
        return RNG, f"random.{tail}()"
    if resolved.startswith("numpy.random."):
        fn = resolved.rsplit(".", 1)[-1]
        if fn in _NUMPY_RANDOM_FNS:
            return RNG, f"numpy.random.{fn}()"
        if fn == "default_rng" and not call.args and not call.keywords:
            return RNG, "unseeded numpy.random.default_rng()"
    for banned in _WALL_CLOCK:
        if matches(resolved, banned):
            return CLOCK, f"{banned}()"
    return None


def hazards(node: ast.AST, imports: dict[str, str]
            ) -> Iterator[tuple[str, ast.AST, str]]:
    """(code, node, detail) for every determinism hazard under ``node``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            found = _call_hazard(sub, imports)
            if found is not None:
                yield found[0], sub, found[1]
        elif isinstance(sub, ast.For):
            if _is_set_expr(sub.iter):
                yield UNORDERED, sub.iter, _UNSORTED
        elif isinstance(sub, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            for gen in sub.generators:
                if _is_set_expr(gen.iter):
                    yield UNORDERED, gen.iter, _UNSORTED


@dataclass(slots=True)
class _Reach:
    """How a function reaches a hazard of one kind."""

    detail: str
    hop: CallSite | None      # the outgoing call that leads source-ward


def _propagate(graph: PackageGraph,
               sources: dict[str, str]) -> dict[str, _Reach]:
    """Multi-source BFS over reverse call edges for one hazard kind."""
    reach = {qual: _Reach(detail, None) for qual, detail in sources.items()}
    frontier = sorted(sources)
    while frontier:
        next_frontier: list[str] = []
        for callee in frontier:
            for site in sorted(graph.callers.get(callee, []),
                               key=lambda s: (s.caller, s.line, s.col)):
                if site.caller in reach:
                    continue
                reach[site.caller] = _Reach(reach[callee].detail, site)
                next_frontier.append(site.caller)
        frontier = sorted(set(next_frontier))
    return reach


def check_taint_flows(graph: PackageGraph,
                      codes: Collection[str]) -> list[Finding]:
    """RPR101–103 findings among ``codes``, at every call depth."""
    rules = [get_rule(code) for code in (RNG, CLOCK, UNORDERED)
             if code in codes]
    findings: list[Finding] = []
    for name in sorted(graph.modules):
        module = graph.modules[name]
        active = {rule.code for rule in rules
                  if rule.applies_to(module.tags)}
        if not active:
            continue
        for code, node, detail in hazards(module.tree, module.imports):
            if code in active:
                findings.append(module.finding(
                    node, code, f"{detail}; {_WHY[code]}"))
    sources: dict[str, dict[str, str]] = {rule.code: {} for rule in rules}
    for qual in sorted(graph.functions):
        info = graph.functions[qual]
        for code, _, detail in hazards(info.node, info.module.imports):
            if code in sources:
                sources[code].setdefault(qual, detail)
    for rule in rules:
        reach = _propagate(graph, sources[rule.code])
        for qual in sorted(reach):
            first_hop = reach[qual].hop
            if first_hop is None or not rule.applies_to(
                    graph.functions[qual].module.tags):
                continue
            names, current = [qual], qual
            while (hop := reach[current].hop) is not None:
                current = hop.callee
                names.append(current)
            chain = " -> ".join(graph.short(name) for name in names)
            findings.append(Finding(
                path=first_hop.path, line=first_hop.line,
                col=first_hop.col, code=rule.code, severity=rule.severity,
                message=(f"{reach[qual].detail} reaches sink "
                         f"{graph.short(qual)}() via {chain}; "
                         f"{_WHY[rule.code]}"),
            ))
    return findings


__all__ = [
    "check_taint_flows",
    "hazards",
]
