"""The acceptance gate, enforced from the test suite itself:
``repro lint src tests`` must be clean on this repo.

One run covers every rule over ``src/repro`` and ``tests`` alike.  Anything new the rules catch
must be fixed or suppressed inline with a reason.
"""

from __future__ import annotations

from repro.lint import Config, lint_paths
from tests.lint.conftest import REPO_ROOT


def test_repo_is_lint_clean_under_baseline():
    # The baseline is the empty one: there is no baseline file, so no
    # finding is excused and the run itself must be clean.
    report = lint_paths(
        [REPO_ROOT / "src", REPO_ROOT / "tests"],
        Config(root=REPO_ROOT),
    )
    details = "\n".join(f.format_text() for f in report.findings)
    assert report.ok, f"lint findings:\n{details}"
