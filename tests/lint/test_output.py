"""The text trailer and the pinned ``repro-lint/1`` JSON schema."""

from __future__ import annotations

import io
import json

from repro.lint import (
    REPORT_SCHEMA,
    Config,
    format_json,
    format_text,
    lint_paths,
    report_document,
    write_json,
)

_FINDING_KEYS = {"path", "line", "col", "code", "severity", "message"}
_DOCUMENT_KEYS = {"schema", "files", "ok", "findings", "counts",
                  "suppressed"}


def _report(tmp_path):
    (tmp_path / "a.py").write_text("def f(x=[]):\n    return x\n")
    return lint_paths([tmp_path], Config(root=tmp_path))


def test_json_document_schema(tmp_path):
    document = report_document(_report(tmp_path))
    assert set(document) == _DOCUMENT_KEYS
    assert document["schema"] == REPORT_SCHEMA
    assert document["ok"] is False
    assert document["files"] == 1
    assert document["counts"] == {"RPR302": 1}
    (finding,) = document["findings"]
    assert set(finding) == _FINDING_KEYS
    assert finding["path"] == "a.py"
    assert finding["line"] == 1
    assert finding["code"] == "RPR302"
    assert finding["severity"] == "error"


def test_format_json_round_trips(tmp_path):
    out = io.StringIO()
    format_json(_report(tmp_path), out)
    assert json.loads(out.getvalue())["schema"] == REPORT_SCHEMA


def test_write_json(tmp_path):
    target = tmp_path / "lint-report.json"
    write_json(_report(tmp_path), target)
    assert json.loads(target.read_text())["counts"] == {"RPR302": 1}


def test_text_trailer_summarizes(tmp_path):
    out = io.StringIO()
    format_text(_report(tmp_path), out)
    text = out.getvalue()
    assert "RPR302" in text
    assert "1 finding(s) in 1 file(s)" in text


def test_text_clean_run(tmp_path):
    (tmp_path / "ok.py").write_text("X = 1\n__all__ = ['X']\n")
    report = lint_paths([tmp_path / "ok.py"], Config(root=tmp_path))
    out = io.StringIO()
    format_text(report, out)
    assert "lint: clean" in out.getvalue()


def test_sarif_document_shape(tmp_path):
    from repro.lint import sarif_document
    from repro.lint.output import SARIF_VERSION

    document = sarif_document(_report(tmp_path))
    assert document["version"] == SARIF_VERSION
    (run,) = document["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro-lint"
    assert [rule["id"] for rule in driver["rules"]] == ["RPR302"]
    (result,) = run["results"]
    assert result["ruleId"] == "RPR302"
    assert result["ruleIndex"] == 0
    assert result["level"] == "error"
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"] == "a.py"
    assert location["artifactLocation"]["uriBaseId"] == "%SRCROOT%"
    assert location["region"]["startLine"] == 1


def test_sarif_clean_report_has_no_rules(tmp_path):
    from repro.lint import Config, lint_paths, sarif_document

    (tmp_path / "ok.py").write_text("X = 1\n__all__ = ['X']\n")
    report = lint_paths([tmp_path / "ok.py"], Config(root=tmp_path))
    document = sarif_document(report)
    (run,) = document["runs"]
    assert run["tool"]["driver"]["rules"] == []
    assert run["results"] == []


def test_write_sarif(tmp_path):
    from repro.lint import write_sarif

    target = tmp_path / "lint-report.sarif"
    write_sarif(_report(tmp_path), target)
    document = json.loads(target.read_text())
    assert document["version"] == "2.1.0"
    assert document["runs"][0]["results"]
