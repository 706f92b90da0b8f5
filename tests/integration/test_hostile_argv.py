"""Hostile numbers on the command line: every one is refused cleanly.

The walk reads ``tests/data/cli_surface.json`` — every parser and its
options — and feeds ``nan``, ``inf``, ``0`` and ``-1`` to each numeric
option (``--seed`` excepted: any integer is a seed).  Each run must end
with argparse's exit 2, or with exit 1, one ``error: ...`` line on
stderr and nothing on stdout — the flag is refused before the command
does any work.  No other exception may escape ``main``, and no run may
outlast :data:`DEADLINE_S`.  The values that are valid are listed in
:data:`VALID`; those runs must exit 0.
"""

from __future__ import annotations

import argparse
import io
import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from tests.conftest import deadline

SURFACE = Path(__file__).parents[1] / "data" / "cli_surface.json"
HOSTILE = ("nan", "inf", "0", "-1")
#: Options whose every value is legal.
EXEMPT = {"--seed"}
#: A run that takes longer than this counts as a hang.
DEADLINE_S = 2.0
#: ``(parser, option, value)`` runs that are valid and must exit 0.
VALID = {
    ("repro simulate", "--cost", "0"),  # free updates: send every tick
    ("repro simulate", "--cost", "inf"),  # an infinite cost is legal
}


def small_context(tmp: Path, trace: Path) -> dict[str, list[str]]:
    """The rest of each command's argv: small enough that a run whose
    value is (wrongly) accepted ends in well under the deadline."""
    scenario = ["--size", "2", "--duration", "2"]
    return {
        "repro report": ["--fast"],
        "repro simulate": ["--duration", "5"],
        "repro scenario": scenario,
        "repro stats": [*scenario, "--queries", "2"],
        "repro trace record": [*scenario, "--queries", "2",
                               "--out", str(tmp / "recorded.jsonl")],
        "repro trace replay": [str(trace)],
    }


def numeric_options() -> list[tuple[str, str]]:
    """``(parser, option)`` for every int or float option in the fixture."""
    parsers = {}

    def walk(parser: argparse.ArgumentParser) -> None:
        parsers[parser.prog] = parser
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for child in action.choices.values():
                    walk(child)

    walk(build_parser())
    found = []
    for prog, actions in json.loads(SURFACE.read_text()).items():
        types = {option: action.type for action in parsers[prog]._actions
                 for option in action.option_strings}
        for action in actions:
            for option in action["options"][:1]:
                if types[option] in (int, float) and option not in EXEMPT:
                    found.append((prog, option))
    return found


CASES = [(prog, option, value) for prog, option in numeric_options()
         for value in HOSTILE]


@pytest.fixture(scope="module")
def recorded_trace(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("trace") / "small.jsonl"
    assert main(["trace", "record", "--size", "2", "--duration", "2",
                 "--queries", "2", "--out", str(path)],
                out=io.StringIO()) == 0
    return path


def test_the_walk_reaches_every_command_with_a_number():
    walked = {prog for prog, _ in numeric_options()}
    assert walked == {"repro report", "repro simulate", "repro scenario",
                      "repro stats", "repro trace record",
                      "repro trace replay"}
    assert {(prog, option) for prog, option, _ in VALID} <= set(
        numeric_options())


@pytest.mark.parametrize(("prog", "option", "value"), CASES,
                         ids=["-".join([p[6:].replace(" ", "-"), o[2:], v])
                              for p, o, v in CASES])
def test_a_hostile_number_is_refused_before_any_work(
        prog, option, value, tmp_path, recorded_trace, capsys):
    argv = [*prog.split()[1:], *small_context(tmp_path, recorded_trace)[prog],
            option, value]
    out = io.StringIO()
    with deadline(DEADLINE_S):
        try:
            code = main(argv, out=out)
        except SystemExit as exc:
            code = exc.code
    stderr = capsys.readouterr().err
    if (prog, option, value) in VALID:
        assert code == 0, stderr
        return
    assert code in (1, 2), f"exit {code}: {' '.join(argv)}"
    if code == 1:
        assert stderr.startswith("error: ") and stderr.count("\n") == 1, stderr
        assert out.getvalue() == "", "the command did work before refusing"
