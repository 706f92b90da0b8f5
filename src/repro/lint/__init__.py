"""Paper-invariant static analysis (``repro lint``).

The reproduction's headline guarantees — dead-reckoning math matching
Propositions 1–4, and kernel/batched output byte-identical to the
reference loops — rest on invariants that normal tests cannot watch at
every commit: determinism of the sim/exec/batch paths, numeric hygiene
in the cost algebra, a stable public API surface, and observability
discipline.  This package machine-checks
them at rest, in one run in which each hazard has one detector and
one code:

* :mod:`repro.lint.rules` — rule registry + tag-based path scoping,
* :mod:`repro.lint.checks` — the per-module rule pack,
* :mod:`repro.lint.flow` — the whole-program rules: determinism
  (``RPR101``–``RPR103``) at every call depth, over each program's
  call graph,
* :mod:`repro.lint.engine` — file collection, one parse per file,
  dispatch, and the ``# repro: noqa[CODE] reason`` suppression
  protocol,
* :mod:`repro.lint.output` — text, ``repro-lint/1`` JSON, and SARIF
  2.1.0 renderings.

Entry points: ``repro lint [paths]`` (CLI), ``make lint``, and the CI
``lint`` job.  See README "Static analysis" for the workflow, including
how to add a rule and when to suppress.
"""

from repro.lint.engine import (
    Config,
    LintReport,
    ModuleReport,
    collect_files,
    lint_paths,
    lint_source,
)
from repro.lint.findings import SEVERITY_ERROR, SEVERITY_WARNING, Finding
from repro.lint.output import (
    REPORT_SCHEMA,
    format_json,
    format_sarif,
    format_text,
    report_document,
    sarif_document,
    write_json,
    write_sarif,
)
from repro.lint.rules import (
    LintError,
    ModuleContext,
    Rule,
    all_rules,
    classify_path,
    get_rule,
    known_codes,
    register_rule,
)

__all__ = [
    "Config",
    "Finding",
    "LintError",
    "LintReport",
    "ModuleContext",
    "ModuleReport",
    "REPORT_SCHEMA",
    "Rule",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "all_rules",
    "classify_path",
    "collect_files",
    "format_json",
    "format_sarif",
    "format_text",
    "get_rule",
    "known_codes",
    "lint_paths",
    "lint_source",
    "register_rule",
    "report_document",
    "sarif_document",
    "write_json",
    "write_sarif",
]
