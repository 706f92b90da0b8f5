"""The lint engine: file collection, rule dispatch, and suppression.

Run :func:`lint_paths` over files and directories; it parses each
module once, dispatches the rules whose scope covers the module's path
tags (see :mod:`repro.lint.rules`), applies inline suppressions, and
returns a :class:`LintReport`.

Inline suppression matches ruff/flake8 ergonomics but is deliberately
narrower — a code is always required, and a **reason** is required
too::

    t = wall_clock()  # repro: noqa[RPR102] trace timestamps are data here

A ``# repro: noqa[...]`` naming an unregistered code raises finding
``RPR901``; one without a reason string raises ``RPR902``.  Suppression
is per-line and per-code: it never hides findings of other codes on the
same line.

Directory walks skip ``tests/lint/fixtures/`` (deliberately-bad rule
fixtures) and the usual cache directories, but a path passed
*explicitly* is always linted — ``repro lint
tests/lint/fixtures/sim/bad_rng.py`` works as expected.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.lint.findings import Finding
from repro.lint.rules import (
    LintError,
    ModuleContext,
    checkers_for,
    classify_path,
    known_codes,
)

#: Directory-name fragments skipped during directory walks.  Explicit
#: file arguments bypass this list.
DEFAULT_EXCLUDES = (
    "tests/lint/fixtures",
    "__pycache__",
    ".git",
    ".venv",
    "build",
    ".egg-info",
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
    baselined: int = 0

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

    Files are taken as given (even when an exclude fragment matches);
    directories are walked recursively with excludes applied.
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
            for found in sorted(path.rglob("*.py")):
                posix = found.as_posix()
                if any(fragment in posix for fragment in config.exclude):
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


def _noqa_directives(source: str) -> dict[int, tuple[set[str], str]]:
    """Line number -> (codes, reason) for every suppression comment.

    A directive suppresses findings on its own physical line *and* on
    the first line of the logical statement it trails, so a noqa on
    the closing line of a multi-line call still reaches the finding
    (which anchors to the statement's first line).
    """
    directives: dict[int, tuple[set[str], str]] = {}
    for line, logical_start, codes, reason in _noqa_comments(source):
        for number in {line, logical_start}:
            if number in directives:
                merged = directives[number][0] | codes
                directives[number] = (merged, directives[number][1] or
                                      reason)
            else:
                directives[number] = (codes, reason)
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
    lines = tuple(source.splitlines())
    tags = classify_path(relpath)
    findings: list[Finding] = []
    try:
        tree = ast.parse(source, filename=relpath)
    except SyntaxError as exc:
        return ModuleReport(findings=[Finding(
            path=relpath, line=exc.lineno or 1, col=(exc.offset or 0) + 1,
            code="RPR000", severity="error",
            message=f"syntax error: {exc.msg}",
        )], suppressed=0)
    ctx = ModuleContext(relpath=relpath, tree=tree, lines=lines, tags=tags,
                        root=str(config.root))
    for rule in checkers_for(tags, select=config.select):
        assert rule.check is not None
        findings.extend(rule.check(ctx))

    directives = _noqa_directives(source)
    kept: list[Finding] = []
    used: dict[int, set[str]] = {}
    for finding in findings:
        directive = directives.get(finding.line)
        if directive is not None and finding.code in directive[0]:
            used.setdefault(finding.line, set()).add(finding.code)
        else:
            kept.append(finding)
    suppressed = len(findings) - len(kept)

    registered = known_codes()
    for number, _, codes, reason in _noqa_comments(source):
        if _selected("RPR901", config):
            for code in sorted(codes - registered):
                kept.append(Finding(
                    path=relpath, line=number, col=1, code="RPR901",
                    severity="error",
                    message=f"noqa references unknown rule code {code!r}",
                ))
        if _selected("RPR902", config) and not reason:
            kept.append(Finding(
                path=relpath, line=number, col=1, code="RPR902",
                severity="error",
                message="noqa carries no reason; say why the finding is "
                        "intentional",
            ))
    kept.sort()
    return ModuleReport(findings=kept, suppressed=suppressed)


def _selected(code: str, config: Config) -> bool:
    return config.select is None or code in config.select


def _lint_file_task(item: tuple[str, str, Config]) -> ModuleReport:
    """Worker body for the parallel per-file pass (must pickle)."""
    path_str, relpath, config = item
    source = Path(path_str).read_text(encoding="utf-8")
    return lint_source(source, relpath, config)


def lint_paths(paths: Sequence[str | Path],
               config: Config | None = None,
               jobs: int = 1) -> LintReport:
    """Lint files/directories and return the aggregate report.

    With ``jobs > 1`` the per-file pass fans out over a process pool.
    Each file's report is computed independently and reassembled in
    the canonical (sorted) file order before the final findings sort,
    so the output is byte-identical to a serial run.
    """
    config = config if config is not None else Config()
    files = collect_files(paths, config)
    items = [(str(path), _relpath(path, config.root), config)
             for path in files]
    if jobs > 1 and len(items) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(items))
                                 ) as pool:
            reports = list(pool.map(_lint_file_task, items,
                                    chunksize=8))
    else:
        reports = [_lint_file_task(item) for item in items]
    findings: list[Finding] = []
    suppressed = 0
    for module in reports:
        findings.extend(module.findings)
        suppressed += module.suppressed
    findings.sort()
    return LintReport(findings=findings, files=len(files),
                      suppressed=suppressed)


def iter_rule_codes(findings: Iterable[Finding]) -> list[str]:
    """Sorted unique codes present in ``findings`` (test helper)."""
    return sorted({finding.code for finding in findings})


__all__ = [
    "Config",
    "DEFAULT_EXCLUDES",
    "LintReport",
    "ModuleReport",
    "collect_files",
    "iter_rule_codes",
    "lint_paths",
    "lint_source",
]
