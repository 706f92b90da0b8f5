"""Engine behavior: path classification, excludes, and suppression."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import Config, LintError, classify_path, lint_paths, lint_source
from repro.lint.engine import collect_files
from tests.lint.conftest import FIXTURES, REPO_ROOT


class TestClassifyPath:
    def test_sim_is_deterministic(self):
        tags = classify_path("src/repro/sim/engine.py")
        assert "deterministic" in tags and "library" in tags

    def test_exec_is_deterministic(self):
        tags = classify_path("src/repro/exec/executor.py")
        assert {"deterministic", "library"} <= tags

    def test_dbms_batch_is_deterministic_but_not_other_dbms(self):
        assert "deterministic" in classify_path("src/repro/dbms/batch.py")
        assert "deterministic" in classify_path("src/repro/dbms/refine.py")
        assert "deterministic" not in classify_path(
            "src/repro/dbms/database.py")

    def test_tests_tagged_test(self):
        assert "test" in classify_path("tests/sim/test_engine.py")

    def test_fixture_prefix_is_stripped(self):
        # A fixture mimicking sim/ scopes exactly like real sim/ code:
        # deterministic, and NOT a test module.
        tags = classify_path("tests/lint/fixtures/sim/bad_rng.py")
        assert "deterministic" in tags
        assert "test" not in tags

    def test_fixture_library_prefix(self):
        tags = classify_path(
            "tests/lint/fixtures/src/repro/core/bad_float_eq.py")
        assert "library" in tags and "test" not in tags

    def test_main_is_script(self):
        assert "script" in classify_path("src/repro/__main__.py")


class TestCollectFiles:
    def test_directory_walk_skips_fixtures(self):
        files = collect_files([REPO_ROOT / "tests" / "lint"],
                              Config(root=REPO_ROOT))
        assert files, "tests/lint itself should be collected"
        assert not any("fixtures" in p.as_posix() for p in files)

    def test_explicit_file_bypasses_excludes(self):
        target = FIXTURES / "sim" / "bad_rng.py"
        files = collect_files([target], Config(root=REPO_ROOT))
        assert files == [target]

    def test_duplicates_removed(self):
        target = FIXTURES / "sim" / "bad_rng.py"
        files = collect_files([target, target], Config(root=REPO_ROOT))
        assert len(files) == 1

    def test_missing_path_raises(self):
        with pytest.raises(LintError, match="no such file"):
            collect_files([Path("does/not/exist.py")], Config())

    def test_excludes_match_whole_components(self, tmp_path):
        # "build" names a directory, not a substring: rebuild_grid.py
        # is linted, build/ is skipped.
        sim = tmp_path / "sim"
        (sim / "build").mkdir(parents=True)
        for path in (sim / "grid.py", sim / "rebuild_grid.py",
                     sim / "build" / "grid.py"):
            path.write_text("import random\nX = random.random()\n")
        files = collect_files([sim], Config(root=tmp_path))
        assert [p.name for p in files] == ["grid.py", "rebuild_grid.py"]
        report = lint_paths([sim], Config(root=tmp_path))
        assert [f.path for f in report.findings] == [
            "sim/grid.py", "sim/rebuild_grid.py"]

    def test_fixture_package_passed_explicitly_is_walked(self):
        files = collect_files([FIXTURES / "determinism"],
                              Config(root=REPO_ROOT))
        assert len(files) == 6


class TestSuppression:
    def test_noqa_suppresses_matching_code(self):
        report = lint_source(
            "def f(x=[]):  # repro: noqa[RPR302] shared scratch is intended\n"
            "    return x\n",
            "anywhere/mod.py",
        )
        assert report.findings == []
        assert report.suppressed == 1

    def test_noqa_does_not_suppress_other_codes(self):
        # The suppression names RPR301; the RPR302 finding on the same
        # line must survive.
        report = lint_source(
            "def f(x=[]):  # repro: noqa[RPR301] wrong code on purpose\n"
            "    return x\n",
            "anywhere/mod.py",
        )
        assert [f.code for f in report.findings] == ["RPR302"]

    def test_noqa_multiple_codes(self):
        source = (
            "import random\n"
            "def f(x=[]):  # repro: noqa[RPR302, RPR101] fixture covers both\n"
            "    return x + [random.random()]\n"
        )
        report = lint_source(source, "sim/mod.py")
        assert report.suppressed == 1  # RPR302 on the def line
        # the RPR101 call is on another line, so it still fires
        assert [f.code for f in report.findings] == ["RPR101"]

    def test_noqa_in_docstring_is_not_a_directive(self):
        report = lint_source(
            '"""Docs may mention # repro: noqa[RPR000] freely."""\n'
            "X = 1\n"
            '__all__ = ["X"]\n',
            "anywhere/mod.py",
        )
        assert report.findings == []

    def test_unknown_code_and_missing_reason(self):
        report = lint_source(
            "X = 1  # repro: noqa[NOPE1]\n__all__ = ['X']\n",
            "anywhere/mod.py",
        )
        assert sorted(f.code for f in report.findings) == [
            "RPR901", "RPR902"]


class TestSelect:
    def test_select_limits_rules(self):
        source = "def f(x=[], y={}):\n    return x, y\n"
        report = lint_source(source, "anywhere/mod.py",
                             Config(select=frozenset({"RPR301"})))
        assert report.findings == []
        report = lint_source(source, "anywhere/mod.py",
                             Config(select=frozenset({"RPR302"})))
        assert len(report.findings) == 2


def test_lint_paths_aggregates(tmp_path):
    (tmp_path / "a.py").write_text("def f(x=[]):\n    return x\n")
    (tmp_path / "b.py").write_text("X = 1\n__all__ = ['X']\n")
    report = lint_paths([tmp_path], Config(root=tmp_path))
    assert report.files == 2
    assert [f.code for f in report.findings] == ["RPR302"]
    assert report.findings[0].path == "a.py"


class TestNoqaContinuationLines:
    def test_directive_on_closing_line_reaches_statement_start(self):
        # The finding anchors to the statement's first line; the noqa
        # trails the closing paren two lines later.  The directive must
        # still reach it.
        source = (
            "import random\n"
            "value = random.choice(\n"
            "    [1, 2, 3],\n"
            ")  # repro: noqa[RPR101] fixture exercises continuation lines\n"
        )
        report = lint_source(source, "sim/mod.py")
        assert report.findings == []
        assert report.suppressed == 1

    def test_unknown_code_on_continuation_reports_once(self):
        # The directive maps to two lines (its own and the logical
        # start); RPR901/902 must still fire once per comment, not per
        # mapped line.
        source = (
            "value = sum(\n"
            "    [1, 2],\n"
            ")  # repro: noqa[NOPE9]\n"
        )
        report = lint_source(source, "anywhere/mod.py")
        assert sorted(f.code for f in report.findings) == [
            "RPR901", "RPR902"]

    def test_multi_code_directive_suppresses_both(self):
        source = (
            "import random\n"
            "import time\n"
            "def f():\n"
            "    return random.random() + time.time()"
            "  # repro: noqa[RPR101, RPR102] both hazards are the point\n"
        )
        report = lint_source(source, "sim/mod.py")
        assert report.findings == []
        assert report.suppressed == 2
