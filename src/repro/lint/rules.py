"""Rule registry and path scoping for the lint engine.

Every rule is a :class:`Rule`: a stable code (``RPR1xx`` determinism,
``RPR3xx`` numeric hygiene, ``RPR5xx`` observability discipline,
``RPR9xx`` engine hygiene), a severity, a one-line description, a
*scope* naming the path family it applies to, and a per-module AST
checker — or none, when the engine enforces the rule itself (syntax
errors and suppression hygiene).  Checkers live in
:mod:`repro.lint.checks` and register themselves via :func:`register`.

Scoping is tag-based.  :func:`classify_path` maps a repo-relative path
to a set of tags (``deterministic``, ``vec``, ``obs``, ``dbms``,
``library``, ``test``, ``script``) and each scope is a predicate over
those tags.  Paths under ``tests/lint/fixtures/`` have that prefix
stripped before classification, so a fixture at
``tests/lint/fixtures/sim/bad.py`` is scoped exactly like a real
``sim/`` module — fixtures exercise rules under the same scoping the
production tree sees.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from repro.errors import ReproError
from repro.lint.findings import Finding, valid_severity


class LintError(ReproError):
    """A lint rule or configuration is malformed."""


#: Fixture trees mimic production paths below this prefix; it is
#: stripped before classification (see module docstring).
FIXTURE_PREFIX = "tests/lint/fixtures/"


def classify_path(relpath: str) -> frozenset[str]:
    """Map a repo-relative posix path to its scoping tags."""
    rel = relpath.replace("\\", "/")
    if FIXTURE_PREFIX in rel:
        rel = rel.split(FIXTURE_PREFIX, 1)[1]
    parts = rel.split("/")
    stem = parts[-1][:-3] if parts[-1].endswith(".py") else parts[-1]
    tags = set()
    if "tests" in parts or stem.startswith("test_") or stem == "conftest":
        tags.add("test")
    # Simulation, sweep and kernels, plus what digests, records or
    # orders their output.
    if ("sim" in parts or "exec" in parts or "vec" in parts
            or "reporting" in parts
            or rel.endswith(("dbms/batch.py", "dbms/refine.py",
                             "trace/recorder.py"))):
        tags.add("deterministic")
    if "vec" in parts:
        tags.add("vec")
    if "obs" in parts:
        tags.add("obs")
    if "dbms" in parts or "index" in parts:
        tags.add("dbms")
    if "src" in parts or parts[0] == "repro":
        tags.add("library")
    if stem in ("__main__", "conftest", "setup"):
        tags.add("script")
    return frozenset(tags)


def _scope_everywhere(tags: frozenset[str]) -> bool:
    return True


def _scope_deterministic(tags: frozenset[str]) -> bool:
    return "deterministic" in tags


def _scope_library(tags: frozenset[str]) -> bool:
    return "library" in tags and "test" not in tags


def _scope_library_not_obs(tags: frozenset[str]) -> bool:
    return _scope_library(tags) and "obs" not in tags


def _scope_dbms_index(tags: frozenset[str]) -> bool:
    return "dbms" in tags and "test" not in tags


def _scope_vec(tags: frozenset[str]) -> bool:
    return "vec" in tags and "test" not in tags


def _scope_deterministic_or_obs(tags: frozenset[str]) -> bool:
    # Span timestamps are subtracted into durations and self times: a
    # wall-clock step corrupts them.
    return _scope_deterministic(tags) or ("obs" in tags
                                          and "test" not in tags)


#: Scope name -> predicate over path tags.
SCOPES: dict[str, Callable[[frozenset[str]], bool]] = {
    "everywhere": _scope_everywhere,
    "deterministic": _scope_deterministic,
    "deterministic-or-obs": _scope_deterministic_or_obs,
    "library": _scope_library,
    "library-not-obs": _scope_library_not_obs,
    "dbms-index": _scope_dbms_index,
    "vec": _scope_vec,
}


@dataclass(frozen=True, slots=True)
class ModuleContext:
    """One parsed module as seen by rule checkers."""

    relpath: str
    tree: ast.Module
    tags: frozenset[str] = field(default_factory=frozenset)
    #: Local name -> canonical dotted origin of the module's imports.
    imports: dict[str, str] = field(default_factory=dict)

    def finding(self, node: ast.AST, code: str, message: str) -> Finding:
        """Build a finding for ``node`` under this module's path."""
        rule = get_rule(code)
        return Finding(
            path=self.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=code,
            severity=rule.severity,
            message=message,
        )


Checker = Callable[[ModuleContext], Iterator[Finding]]


@dataclass(frozen=True, slots=True)
class Rule:
    """One registered lint rule."""

    code: str
    name: str
    severity: str
    scope: str
    description: str
    check: Checker | None  # None: enforced by the engine itself

    def applies_to(self, tags: frozenset[str]) -> bool:
        return SCOPES[self.scope](tags)


_REGISTRY: dict[str, Rule] = {}


def register(code: str, name: str, severity: str, scope: str,
             description: str) -> Callable[[Checker], Checker]:
    """Register the decorated checker as rule ``code``."""

    def decorate(check: Checker) -> Checker:
        register_rule(Rule(code=code, name=name, severity=severity,
                           scope=scope, description=description,
                           check=check))
        return check

    return decorate


def register_rule(rule: Rule) -> None:
    """Add ``rule`` to the registry (codes must be unique)."""
    if rule.code in _REGISTRY:
        raise LintError(f"lint rule {rule.code} registered twice")
    if not valid_severity(rule.severity):
        raise LintError(
            f"lint rule {rule.code} has unknown severity {rule.severity!r}"
        )
    if rule.scope not in SCOPES:
        raise LintError(
            f"lint rule {rule.code} has unknown scope {rule.scope!r}"
        )
    _REGISTRY[rule.code] = rule


def all_rules() -> list[Rule]:
    """Every registered rule, sorted by code."""
    _ensure_loaded()
    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


def get_rule(code: str) -> Rule:
    """Look up one rule by code."""
    _ensure_loaded()
    try:
        return _REGISTRY[code]
    except KeyError:
        raise LintError(f"no lint rule with code {code!r}") from None


def known_codes() -> frozenset[str]:
    """The set of registered rule codes."""
    _ensure_loaded()
    return frozenset(_REGISTRY)


def checkers_for(tags: frozenset[str],
                 select: Iterable[str] | None = None) -> list[Rule]:
    """The rules (with checkers) that apply to a module with ``tags``."""
    _ensure_loaded()
    selected = None if select is None else frozenset(select)
    return [
        rule for rule in all_rules()
        if rule.check is not None and rule.applies_to(tags)
        and (selected is None or rule.code in selected)
    ]


def _ensure_loaded() -> None:
    # The rule pack registers on import; importing it lazily here keeps
    # rules.py importable from checks.py without a cycle.
    if not _REGISTRY:
        import repro.lint.checks  # noqa: F401  (import-for-effect)


__all__ = [
    "Checker",
    "FIXTURE_PREFIX",
    "LintError",
    "ModuleContext",
    "Rule",
    "SCOPES",
    "all_rules",
    "checkers_for",
    "classify_path",
    "get_rule",
    "known_codes",
    "register",
    "register_rule",
]
