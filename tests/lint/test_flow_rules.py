"""Whole-program rules (RPR101–103 at every depth): the bad
mini-package fires with exact counts, the clean counterpart stays
silent, noqa suppresses, and the CLI lints a package directory as one
program.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import main
from repro.lint import Config, lint_paths
from tests.lint.conftest import FIXTURES, REPO_ROOT

FLOW = FIXTURES / "flow"

#: code -> exact finding count in badpkg, depth 0 and depth ≥ 1
#: together.  Exact so a pass that starts double- or under-reporting
#: fails loudly, like the per-file table.
FLOW_BAD_COUNTS = {
    "RPR101": 4,
    "RPR102": 3,
    "RPR103": 3,
}


def lint_package(name, **config):
    return lint_paths([FLOW / name], Config(root=REPO_ROOT, **config))


@pytest.fixture(scope="module")
def bad_report():
    return lint_package("badpkg")


@pytest.fixture(scope="module")
def good_report():
    return lint_package("goodpkg")


@pytest.mark.parametrize("code,count", sorted(FLOW_BAD_COUNTS.items()))
def test_bad_package_fires(bad_report, code, count):
    assert bad_report.counts.get(code, 0) == count, bad_report.findings


def test_good_package_is_silent(good_report):
    assert good_report.findings == []
    assert good_report.suppressed == 0


class TestTaintMessages:
    def test_chain_is_spelled_out(self, bad_report):
        rng = [f for f in bad_report.findings if f.code == "RPR101"]
        assert any(
            "random.random() reaches sink dbms.batch.digest_rows() via "
            "dbms.batch.digest_rows -> sim.engine.jitter" in f.message
            for f in rng), rng

    def test_chain_into_the_query_core(self, bad_report):
        # Two hops: refine() -> digest_rows() -> jitter().
        (finding,) = [f for f in bad_report.findings
                      if f.path.endswith("dbms/refine.py")]
        assert finding.code == "RPR101"
        assert ("via dbms.refine.refine -> dbms.batch.digest_rows -> "
                "sim.engine.jitter") in finding.message

    def test_finding_lands_on_the_first_hop(self, bad_report):
        # A chain is reported at the sink's call into the tainted
        # helper, not at the source line in sim/engine.py (where the
        # depth-0 finding is).
        for finding in bad_report.findings:
            if "reaches sink" in finding.message:
                assert "sim/engine.py" not in finding.path

    def test_clock_taint_names_the_read(self, bad_report):
        clock = [f for f in bad_report.findings if f.code == "RPR102"]
        assert all("time.time()" in f.message for f in clock)


def test_select_narrows_flow_rules():
    report = lint_package("badpkg", select=frozenset({"RPR102"}))
    assert {f.code for f in report.findings} == {"RPR102"}


def test_noqa_suppresses_flow_finding():
    report = lint_package("noqapkg")
    assert report.findings == []
    assert report.suppressed == 1


class TestCli:
    def test_flow_on_real_tree_is_clean(self):
        # The any-depth rules, through the CLI, on the repo's own
        # package as one program: no chain from a sink reaches an RNG,
        # a clock or unordered iteration.
        out = io.StringIO()
        code = main(["lint", str(REPO_ROOT / "src" / "repro"),
                     "--select", ",".join(FLOW_BAD_COUNTS),
                     "--format", "json"], out=out)
        document = json.loads(out.getvalue())
        assert document["findings"] == []
        assert code == 0


def test_package_directory_is_one_program():
    out = io.StringIO()
    code = main(["lint", str(FLOW / "badpkg"), "--format", "json"], out=out)
    assert code != 0
    document = json.loads(out.getvalue())
    assert document["counts"] == FLOW_BAD_COUNTS


@pytest.mark.parametrize("flag", ["--flow", "--jobs=2", "--baseline"])
def test_removed_flags_are_argparse_errors(flag, capsys):
    with pytest.raises(SystemExit) as exited:
        main(["lint", flag], out=io.StringIO())
    assert exited.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
