"""The determinism rules (RPR101–103), one module at a time.

``fixtures/determinism/bad/`` holds one module per code, each in a
deterministic path outside ``sim/`` (``dbms/batch.py``,
``trace/recorder.py``, ``reporting/``), and fires with exact counts;
``good/`` holds the same modules done legally and stays silent.  A
rule sees one module; whether the program is deterministic across the
modules it calls is checked by running it (``tests/test_determinism.py``).
"""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import main
from repro.lint import Config, lint_paths
from tests.lint.conftest import FIXTURES, REPO_ROOT

DETERMINISM = FIXTURES / "determinism"

#: code -> exact finding count in ``bad/``: RPR101 in ``dbms/batch.py``,
#: RPR102 in ``trace/recorder.py``, RPR103 in ``reporting/table.py``.
#: Exact so a rule that starts double- or under-reporting fails loudly.
FLOW_BAD_COUNTS = {
    "RPR101": 4,
    "RPR102": 3,
    "RPR103": 3,
}


def lint_fixtures(name, **config):
    return lint_paths([DETERMINISM / name], Config(root=REPO_ROOT, **config))


@pytest.fixture(scope="module")
def bad_report():
    return lint_fixtures("bad")


@pytest.mark.parametrize("code,count", sorted(FLOW_BAD_COUNTS.items()))
def test_bad_package_fires(bad_report, code, count):
    assert bad_report.counts.get(code, 0) == count, bad_report.findings


def test_good_package_is_silent():
    report = lint_fixtures("good")
    assert report.findings == []
    assert report.suppressed == 0


def test_select_narrows_flow_rules():
    report = lint_fixtures("bad", select=frozenset({"RPR102"}))
    assert {f.code for f in report.findings} == {"RPR102"}


class TestCli:
    def test_flow_on_real_tree_is_clean(self):
        # The determinism rules, through the CLI, on the repo's own
        # package: no RNG, clock or unordered iteration in a
        # deterministic module.
        out = io.StringIO()
        code = main(["lint", str(REPO_ROOT / "src" / "repro"),
                     "--select", ",".join(FLOW_BAD_COUNTS),
                     "--format", "json"], out=out)
        document = json.loads(out.getvalue())
        assert document["findings"] == []
        assert code == 0


@pytest.mark.parametrize("flag", ["--flow", "--jobs=2", "--baseline"])
def test_removed_flags_are_argparse_errors(flag, capsys):
    with pytest.raises(SystemExit) as exited:
        main(["lint", flag], out=io.StringIO())
    assert exited.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
