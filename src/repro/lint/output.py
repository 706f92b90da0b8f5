"""Text and JSON renderings of a lint report.

The JSON document (schema ``repro-lint/1``) is what the CI job uploads
as ``lint-report.json``; its shape is pinned by
``tests/lint/test_output.py``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TextIO

from repro.lint.engine import LintReport

#: Schema tag of the JSON report document.
REPORT_SCHEMA = "repro-lint/1"


def format_text(report: LintReport, out: TextIO) -> None:
    """Render findings one per line, plus a summary trailer."""
    for finding in report.findings:
        print(finding.format_text(), file=out)
    counts = report.counts
    breakdown = ", ".join(f"{code} x{counts[code]}"
                          for code in sorted(counts))
    status = "clean" if report.ok else f"{len(report.findings)} finding(s)"
    trailer = (f"lint: {status} in {report.files} file(s)"
               f" ({report.suppressed} suppressed)")
    if breakdown:
        trailer += f" [{breakdown}]"
    print(trailer, file=out)


def report_document(report: LintReport) -> dict[str, object]:
    """The ``repro-lint/1`` JSON document for ``report``."""
    return {
        "schema": REPORT_SCHEMA,
        "files": report.files,
        "ok": report.ok,
        "findings": [finding.to_dict() for finding in report.findings],
        "counts": report.counts,
        "suppressed": report.suppressed,
    }


def format_json(report: LintReport, out: TextIO) -> None:
    """Render the JSON report document to ``out``."""
    json.dump(report_document(report), out, indent=2)
    out.write("\n")


def write_json(report: LintReport, path: str | Path) -> None:
    """Write the JSON report document to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        format_json(report, handle)


#: SARIF spec version emitted (the version code-scanning ingests).
SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = ("https://raw.githubusercontent.com/oasis-tcs/"
                    "sarif-spec/master/Schemata/sarif-schema-2.1.0.json")


def sarif_document(report: LintReport) -> dict[str, object]:
    """The SARIF 2.1.0 log for ``report`` (code-scanning annotation).

    Only rules that actually fired are listed in the driver, sorted by
    code, and results follow the report's (already sorted) finding
    order — the document is deterministic for a given report.
    """
    from repro.lint.rules import get_rule

    codes = sorted({finding.code for finding in report.findings})
    rule_index = {code: i for i, code in enumerate(codes)}
    rules = []
    for code in codes:
        rule = get_rule(code)
        rules.append({
            "id": code,
            "name": rule.name,
            "shortDescription": {"text": rule.description},
            "defaultConfiguration": {
                "level": "error" if rule.severity == "error"
                else "warning",
            },
        })
    results = []
    for finding in report.findings:
        results.append({
            "ruleId": finding.code,
            "ruleIndex": rule_index[finding.code],
            "level": "error" if finding.severity == "error"
            else "warning",
            "message": {"text": finding.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": finding.path,
                        "uriBaseId": "%SRCROOT%",
                    },
                    "region": {
                        "startLine": finding.line,
                        "startColumn": finding.col,
                    },
                },
            }],
        })
    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro-lint",
                    "rules": rules,
                },
            },
            "results": results,
        }],
    }


def format_sarif(report: LintReport, out: TextIO) -> None:
    """Render the SARIF log to ``out``."""
    json.dump(sarif_document(report), out, indent=2)
    out.write("\n")


def write_sarif(report: LintReport, path: str | Path) -> None:
    """Write the SARIF log to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        format_sarif(report, handle)


__all__ = [
    "REPORT_SCHEMA",
    "SARIF_VERSION",
    "format_json",
    "format_sarif",
    "format_text",
    "report_document",
    "sarif_document",
    "write_json",
    "write_sarif",
]
