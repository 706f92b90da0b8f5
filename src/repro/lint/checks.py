"""The rule pack: every rule's per-module checker, and the registry
entries of the rules the engine enforces itself.

Code families (see :mod:`repro.lint.rules` for scoping):

* ``RPR1xx`` **determinism** — the sweep's kernel and the batched
  query engine promise byte-identical output; unseeded RNG, wall-clock
  reads, and set-iteration order in ``sim/``, ``exec/``, ``vec/``, the
  digest/trace/report modules or (for the clock) ``obs/`` silently
  break that promise.  :func:`hazards` is the one detector for all
  three codes.  A rule sees one module, so a hazard in a helper those
  modules call is out of its sight: ``tests/test_determinism.py``
  checks the promise itself by running the program under two hash
  seeds.
* ``RPR3xx`` **numeric hygiene** — float ``==`` and mutable defaults
  corrupt the §3 cost algebra in ways tests rarely catch; ``vec/``
  kernels additionally ban per-element loops over arrays and
  narrower-than-float64 dtypes, which break the byte-identity promise.
* ``RPR5xx`` **observability discipline** — span pairing, registry
  construction, and flight-recorder event discipline (DBMS/index
  modules serialize events through ``repro.trace``, never ad hoc).
* ``RPR9xx`` **suppression hygiene** — enforced by the engine itself.

Rules the engine enforces itself are registered here with
``check=None``, so they are documented and selectable like any other.
Checkers are pure functions from a :class:`ModuleContext` to an
iterator of findings.  The name helpers — :func:`dotted_name`,
:func:`module_import_map`, :func:`resolve_alias`, :func:`matches` —
are the only copies in the lint package.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.findings import SEVERITY_ERROR, Finding
from repro.lint.rules import (
    Checker,
    ModuleContext,
    Rule,
    register,
    register_rule,
)


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


def module_import_map(tree: ast.Module) -> dict[str, str]:
    """Local name -> canonical dotted origin of the absolute imports."""
    mapping: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    mapping[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    mapping[head] = head
        elif isinstance(node, ast.ImportFrom) and node.module \
                and not node.level:
            for alias in node.names:
                if alias.name != "*":
                    mapping[alias.asname or alias.name] = \
                        f"{node.module}.{alias.name}"
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


def _calls(ctx: ModuleContext) -> Iterator[tuple[ast.Call, str]]:
    """Every call in the module with its import-resolved dotted name."""
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            dotted = dotted_name(node.func)
            if dotted is not None:
                yield node, resolve_alias(dotted, ctx.imports)


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
    """(code, node, detail) for every determinism hazard under ``node``.

    ``RPR103``'s "unordered" has one definition, the stricter one: a
    set expression iterated by a ``for``, a list/generator/dict
    comprehension or ``list()``/``tuple()``, whether or not the
    function returns what it builds.
    """
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


def _hazard_rule(code: str, why: str) -> Checker:
    """The checker of determinism rule ``code``: its hazards, anywhere
    in the module (module-level code included)."""

    def check(ctx: ModuleContext) -> Iterator[Finding]:
        for found, node, detail in hazards(ctx.tree, ctx.imports):
            if found == code:
                yield ctx.finding(node, code, f"{detail}; {why}")

    return check


for _code, _name, _scope, _description, _why in (
    (RNG, "unseeded-rng", "deterministic",
     "no shared-state random.*/numpy.random draws or unseeded "
     "random.Random()/default_rng() in deterministic paths",
     "results must be a pure function of the inputs — draw from a "
     "seeded random.Random (or numpy Generator) instead"),
    (CLOCK, "wall-clock-read", "deterministic-or-obs",
     "no time.time()/datetime.now()/os.urandom()/uuid4() in "
     "deterministic paths or obs/ (perf_counter/monotonic for metrics "
     "and spans are fine)",
     "results and spans must not depend on when the run happened — use "
     "perf_counter/monotonic for metrics, or inject the sim clock"),
    (UNORDERED, "unordered-set-iteration", "deterministic",
     "no iterating a set expression into ordered output in "
     "deterministic paths; wrap in sorted()",
     "set iteration order varies across runs — sorted() the set before "
     "it shapes output"),
):
    register(_code, _name, SEVERITY_ERROR, _scope,
             _description)(_hazard_rule(_code, _why))


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
    "check_float_equality",
    "check_mutable_defaults",
    "check_registry_construction",
    "check_span_pairing",
    "check_vec_kernel_hygiene",
    "dotted_name",
    "hazards",
    "matches",
    "module_import_map",
    "resolve_alias",
]
