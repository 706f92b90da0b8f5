"""Paper-invariant static analysis (``repro lint``).

The reproduction's headline guarantees — dead-reckoning math matching
Propositions 1–4, and kernel/batched output byte-identical to the
reference loops — rest on invariants that normal tests cannot watch at
every commit: no unseeded RNG, wall clock or set-iteration order in
the sim/exec/batch paths, numeric hygiene in the cost algebra, and
observability discipline.  This package machine-checks them at rest,
one module at a time, with one detector and one code per hazard:

* :mod:`repro.lint.rules` — rule registry + tag-based path scoping,
* :mod:`repro.lint.checks` — the rule pack, determinism
  (``RPR101``–``RPR103``) included, and the name helpers,
* :mod:`repro.lint.engine` — file collection, one parse per file,
  dispatch, and the ``# repro: noqa[CODE] reason`` suppression
  protocol,
* :mod:`repro.lint.output` — text, ``repro-lint/1`` JSON, and SARIF
  2.1.0 renderings.

The two promises no single module can show are checked by running the
program: ``tests/test_determinism.py`` compares a sweep's cells and
recorded traces across two hash seeds, and ``tests/test_public_api.py``
imports every module and resolves each name of its ``__all__``.

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
