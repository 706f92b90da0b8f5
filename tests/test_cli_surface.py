"""The command line's surface, pinned option by option.

``tests/data/cli_surface.json`` lists, for every parser and subparser
``build_parser()`` builds, each action's option strings, ``dest``,
default, choices, ``nargs`` and ``required``.  A refactor of how the
flags are declared must leave that list as it is; a deliberate change
of the surface rewrites the fixture (``python tests/test_cli_surface.py``)
and shows up as its diff.  The fixture is also the map a hostile-argv
generator walks.
"""

import argparse
import json
import sys
from pathlib import Path

from repro.cli import build_parser

FIXTURE = Path(__file__).parent / "data" / "cli_surface.json"


def _action(action: argparse.Action) -> dict:
    choices = action.choices
    if isinstance(choices, dict):  # a subparsers action: its command names
        choices = sorted(choices)
    elif choices is not None:
        choices = list(choices)
    return {"options": list(action.option_strings), "dest": action.dest,
            "default": action.default, "choices": choices,
            "nargs": action.nargs, "required": action.required}


def surface(parser: argparse.ArgumentParser) -> dict[str, list[dict]]:
    """``prog -> [action, ...]`` for ``parser`` and every subparser."""
    found = {parser.prog: [_action(action) for action in parser._actions]}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for child in action.choices.values():
                found.update(surface(child))
    return found


def test_every_parser_keeps_its_options():
    recorded = json.loads(FIXTURE.read_text(encoding="utf-8"))
    # A JSON round trip turns tuples into lists, as in the fixture.
    assert json.loads(json.dumps(surface(build_parser()))) == recorded


def test_the_fixture_covers_all_ten_parsers():
    recorded = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert len(recorded) == 1 + 9  # `repro` itself, then its nine subparsers


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(
        json.dumps(surface(build_parser()), indent=1) + "\n",
        encoding="utf-8")
    print(f"wrote {FIXTURE}", file=sys.stderr)
