"""The lint engine: one run over files, one module at a time.

:func:`lint_paths` collects files, parses each once, dispatches the
rules whose scope covers the module's path tags (see
:mod:`repro.lint.rules`) and applies the module's inline suppressions
to what they find; a :class:`LintReport` comes back.  No rule reads
another module: whether the program as a whole is deterministic is
checked by running it (``tests/test_determinism.py``), and whether
each ``__all__`` resolves by importing it (``tests/test_public_api.py``).

Inline suppression matches ruff/flake8 ergonomics but is deliberately
narrower — a code is always required, and a **reason** is required
too::

    t = wall_clock()  # repro: noqa[RPR102] trace timestamps are data here

A ``# repro: noqa[...]`` naming an unregistered code raises finding
``RPR901``; one without a reason string raises ``RPR902``.  Suppression
is per-line and per-code: it never hides findings of other codes on the
same line.

Directory walks skip ``tests/lint/fixtures/`` (deliberately-bad rule
fixtures) and directories named like the usual caches and build
outputs, but a path passed *explicitly* is always linted — ``repro lint
tests/lint/fixtures/sim/bad_rng.py`` or a fixture directory works as
expected.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path
from typing import Sequence

from repro.lint.checks import module_import_map
from repro.lint.findings import Finding
from repro.lint.rules import (
    FIXTURE_PREFIX,
    LintError,
    ModuleContext,
    checkers_for,
    classify_path,
    known_codes,
)

#: Directory names (fnmatch patterns) skipped during directory walks,
#: matched against each path component below the walked directory.
#: Explicit file arguments bypass this list.
DEFAULT_EXCLUDES = (
    "__pycache__",
    ".git",
    ".venv",
    "build",
    "*.egg-info",
)

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa\[(?P<codes>[^\]]*)\]\s*(?P<reason>.*?)\s*$"
)


@dataclass(frozen=True, slots=True)
class Config:
    """Engine configuration (all fields have working defaults)."""

    root: Path = field(default_factory=Path.cwd)
    select: frozenset[str] | None = None
    exclude: tuple[str, ...] = DEFAULT_EXCLUDES


@dataclass(slots=True)
class LintReport:
    """Everything one engine run produced."""

    findings: list[Finding]
    files: int
    suppressed: int

    @property
    def counts(self) -> dict[str, int]:
        """Unsuppressed finding count per rule code."""
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.code] = counts.get(finding.code, 0) + 1
        return counts

    @property
    def ok(self) -> bool:
        return not self.findings


def collect_files(paths: Sequence[str | Path],
                  config: Config) -> list[Path]:
    """Expand ``paths`` into the sorted, deduplicated file list.

    Files are taken as given; directories are walked recursively with
    excludes applied below the walked directory, and fixture files are
    skipped unless the walk starts inside the fixture tree.
    """
    seen: set[Path] = set()
    ordered: list[Path] = []

    def add(path: Path) -> None:
        resolved = path.resolve()
        if resolved not in seen:
            seen.add(resolved)
            ordered.append(path)

    for raw in paths:
        path = Path(raw)
        if path.is_file():
            add(path)
        elif path.is_dir():
            base = path.resolve()
            in_fixtures = FIXTURE_PREFIX in base.as_posix() + "/"
            for found in sorted(path.rglob("*.py")):
                rel = found.relative_to(path)
                if any(fnmatch(part, pattern) for part in rel.parts
                       for pattern in config.exclude):
                    continue
                if not in_fixtures and \
                        FIXTURE_PREFIX in (base / rel).as_posix():
                    continue
                add(found)
        else:
            raise LintError(f"no such file or directory: {path}")
    return ordered


def _relpath(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def _noqa_comments(source: str) -> list[tuple[int, int, set[str], str]]:
    """Every suppression comment: (line, logical start, codes, reason).

    Tokenizes rather than regex-scanning raw lines so that string
    literals and docstrings *mentioning* ``# repro: noqa[...]`` (for
    example, this engine's own documentation) are not treated as
    directives.  ``logical start`` is the first physical line of the
    logical statement the comment trails — for a directive at the end
    of a multi-line call, that is the line findings anchor to.
    """
    comments: list[tuple[int, int, set[str], str]] = []
    if "noqa" not in source:
        return comments
    logical_start: int | None = None
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type == tokenize.NEWLINE:
                logical_start = None
                continue
            if token.type == tokenize.COMMENT:
                match = _NOQA_RE.search(token.string)
                if match is None:
                    continue
                codes = {code.strip()
                         for code in match.group("codes").split(",")
                         if code.strip()}
                start = logical_start if logical_start is not None \
                    else token.start[0]
                comments.append((token.start[0], start, codes,
                                 match.group("reason")))
                continue
            if token.type in (tokenize.NL, tokenize.INDENT,
                              tokenize.DEDENT, tokenize.ENCODING,
                              tokenize.ENDMARKER):
                continue
            if logical_start is None:
                logical_start = token.start[0]
    except tokenize.TokenizeError:  # pragma: no cover - parse caught it
        pass
    return comments


def _noqa_directives(comments: list[tuple[int, int, set[str], str]]
                     ) -> dict[int, set[str]]:
    """Line number -> suppressed codes.

    A directive suppresses findings on its own physical line *and* on
    the first line of the logical statement it trails, so a noqa on
    the closing line of a multi-line call still reaches the finding
    (which anchors to the statement's first line).
    """
    directives: dict[int, set[str]] = {}
    for line, logical_start, codes, _ in comments:
        for number in {line, logical_start}:
            directives.setdefault(number, set()).update(codes)
    return directives


@dataclass(slots=True)
class ModuleReport:
    """Findings (and suppression count) for one linted module."""

    findings: list[Finding]
    suppressed: int


def lint_source(source: str, relpath: str,
                config: Config | None = None) -> ModuleReport:
    """Lint one module from source text (the in-memory entry point)."""
    config = config if config is not None else Config()
    try:
        tree = ast.parse(source, filename=relpath)
    except SyntaxError as exc:
        return ModuleReport(findings=[Finding(
            path=relpath, line=exc.lineno or 1, col=(exc.offset or 0) + 1,
            code="RPR000", severity="error",
            message=f"syntax error: {exc.msg}",
        )], suppressed=0)
    module = ModuleContext(relpath=relpath, tree=tree,
                           tags=classify_path(relpath),
                           imports=module_import_map(tree))
    findings = [finding
                for rule in checkers_for(module.tags, select=config.select)
                if rule.check is not None
                for finding in rule.check(module)]

    comments = _noqa_comments(source)
    directives = _noqa_directives(comments)
    kept = [finding for finding in findings
            if finding.code not in directives.get(finding.line, ())]
    suppressed = len(findings) - len(kept)
    codes = known_codes() if config.select is None else config.select
    registered = known_codes()
    for number, _, codes_named, reason in comments:
        if "RPR901" in codes:
            for code in sorted(codes_named - registered):
                kept.append(Finding(
                    path=relpath, line=number, col=1, code="RPR901",
                    severity="error",
                    message=f"noqa references unknown rule code {code!r}",
                ))
        if "RPR902" in codes and not reason:
            kept.append(Finding(
                path=relpath, line=number, col=1, code="RPR902",
                severity="error",
                message="noqa carries no reason; say why the finding is "
                        "intentional",
            ))
    kept.sort()
    return ModuleReport(findings=kept, suppressed=suppressed)


def lint_paths(paths: Sequence[str | Path],
               config: Config | None = None) -> LintReport:
    """Lint files/directories and return the aggregate report."""
    config = config if config is not None else Config()
    files = collect_files(paths, config)
    findings: list[Finding] = []
    suppressed = 0
    for path in files:
        report = lint_source(path.read_text(encoding="utf-8"),
                             _relpath(path, config.root), config)
        findings.extend(report.findings)
        suppressed += report.suppressed
    findings.sort()
    return LintReport(findings=findings, files=len(files),
                      suppressed=suppressed)


__all__ = [
    "Config",
    "DEFAULT_EXCLUDES",
    "LintReport",
    "ModuleReport",
    "collect_files",
    "lint_paths",
    "lint_source",
]
