"""Every rule: its bad fixture fires, its good fixture stays quiet,
and the CLI exits non-zero on the bad fixture.
"""

from __future__ import annotations

import io

import pytest

from repro.cli import main
from tests.lint.conftest import FIXTURES

#: (fixture, code, expected occurrences).  Counts are exact so a rule
#: that starts double- or under-reporting fails loudly.
BAD_FIXTURES = [
    ("sim/bad_rng.py", "RPR101", 2),
    ("sim/bad_module_seed.py", "RPR101", 1),
    ("sim/bad_clock.py", "RPR102", 3),
    ("sim/bad_set_iter.py", "RPR103", 3),
    ("src/repro/core/bad_float_eq.py", "RPR301", 2),
    ("anywhere/bad_mutable_default.py", "RPR302", 3),
    ("vec/bad_kernel.py", "RPR304", 5),
    ("src/repro/sim/bad_span.py", "RPR501", 1),
    ("src/repro/dbms/bad_registry.py", "RPR502", 1),
    ("src/repro/dbms/bad_jsonl_write.py", "RPR503", 2),
    ("obs/bad_wall_clock.py", "RPR102", 3),
    ("anywhere/bad_noqa.py", "RPR901", 1),
    ("anywhere/bad_noqa.py", "RPR902", 1),
    ("anywhere/bad_syntax.py", "RPR000", 1),
]

#: (fixture, code that must NOT fire there).
GOOD_FIXTURES = [
    ("sim/good_rng.py", "RPR101"),
    ("sim/good_clock.py", "RPR102"),
    ("sim/good_set_iter.py", "RPR103"),
    ("src/repro/core/good_float_eq.py", "RPR301"),
    ("anywhere/good_mutable_default.py", "RPR302"),
    ("vec/good_kernel.py", "RPR304"),
    ("src/repro/sim/good_span.py", "RPR501"),
    ("src/repro/obs/good_registry.py", "RPR502"),
    ("src/repro/dbms/good_recorder.py", "RPR503"),
    ("obs/good_clock.py", "RPR102"),
    ("anywhere/good_noqa.py", "RPR901"),
    ("anywhere/good_noqa.py", "RPR902"),
]


@pytest.mark.parametrize("fixture,code,count", BAD_FIXTURES)
def test_bad_fixture_fires(lint_fixture, fixture, code, count):
    report = lint_fixture(fixture)
    assert report.counts.get(code, 0) == count, report.findings


@pytest.mark.parametrize("fixture,code", GOOD_FIXTURES)
def test_good_fixture_is_quiet(lint_fixture, fixture, code):
    report = lint_fixture(fixture)
    assert report.counts.get(code, 0) == 0, report.findings


@pytest.mark.parametrize(
    "fixture", sorted({fixture for fixture, _, _ in BAD_FIXTURES})
)
def test_cli_exits_nonzero_on_bad_fixture(fixture):
    out = io.StringIO()
    assert main(["lint", str(FIXTURES / fixture)], out=out) != 0


@pytest.mark.parametrize(
    "fixture", sorted({
        fixture for fixture, _ in GOOD_FIXTURES
        # good_noqa's suppression is well-formed but the fixture exists
        # to show RPR901/902 NOT firing; it is otherwise clean too.
    })
)
def test_cli_exits_zero_on_good_fixture(fixture):
    out = io.StringIO()
    assert main(["lint", str(FIXTURES / fixture)], out=out) == 0, \
        out.getvalue()


def test_every_registered_rule_has_a_fixture():
    from repro.lint import all_rules
    from tests.lint.test_flow_rules import FLOW_BAD_COUNTS

    # The determinism rules also have the fixtures under
    # fixtures/determinism/ (test_flow_rules).
    covered = {code for _, code, _ in BAD_FIXTURES} | set(FLOW_BAD_COUNTS)
    assert covered == {rule.code for rule in all_rules()}


def test_list_rules_cli():
    out = io.StringIO()
    assert main(["lint", "--list-rules"], out=out) == 0
    text = out.getvalue()
    for code in ("RPR101", "RPR302", "RPR501", "RPR902"):
        assert code in text
