"""DESIGN.md §7.4's schema registry matches the ``repro-*/N`` tags in
``src/repro``: every tag is a row, every row is used, and each
versioned reader accepts its writer's current tag.

That producers and consumers agree on a document's shape is the
round-trip tests' job (trace write -> read -> replay); the shard plan,
which had none, gets one here.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.geometry.bbox import Rect2D
from repro.shard import load_plan, save_plan, uniform_grid_for
from repro.trace.events import READABLE_SCHEMAS, SCHEMA

REPO_ROOT = Path(__file__).resolve().parents[1]
_TAG = re.compile(r"repro-[a-z0-9][a-z0-9-]*/(?:[0-9]+|\{\w+\})")


def registry_rows(design: str) -> set[str]:
    """The tags listed in the first column of §7.4's table."""
    section = design.split("### 7.4 Schema registry", 1)[1]
    section = section.split("\n#", 1)[0]
    return set(re.findall(r"^\| `(repro-[^`]+)` \|", section, re.MULTILINE))


def source_tags(root: Path = REPO_ROOT / "src" / "repro") -> set[str]:
    """Every tag spelled in the package, ``{NAME}`` resolved through
    the same module's ``NAME = <int>``."""
    tags = set()
    for path in sorted(root.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        for tag in _TAG.findall(text):
            family, _, version = tag.partition("/")
            if version.startswith("{"):
                name = version[1:-1]
                version = re.search(rf"^{name} = (\d+)$", text,
                                    re.MULTILINE).group(1)
            tags.add(f"{family}/{version}")
    return tags


def missing_rows(design: str) -> set[str]:
    return source_tags() - registry_rows(design)


DESIGN = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")


def test_every_tag_in_the_source_is_a_row():
    assert missing_rows(DESIGN) == set()


def test_every_row_is_used_in_the_source():
    assert registry_rows(DESIGN) - source_tags() == set()


def test_readers_accept_their_writers_current_tag(tmp_path):
    # The trace reader is the one that accepts a set (older versions
    # stay readable); every other reader compares against the very
    # constant its writer writes.
    assert SCHEMA in READABLE_SCHEMAS
    assert set(READABLE_SCHEMAS) <= registry_rows(DESIGN)
    # The shard plan has no round-trip test elsewhere.
    plan = uniform_grid_for(Rect2D(0.0, 0.0, 4.0, 2.0), 4)
    path = str(tmp_path / "plan.json")
    save_plan(plan, path)
    assert load_plan(path).to_spec() == plan.to_spec()


def test_a_tag_missing_from_the_registry_is_caught(tmp_path):
    copy = tmp_path / "DESIGN.md"
    copy.write_text(
        DESIGN.replace("| `repro-shard-plan/1` |", "| `shard plan` |"),
        encoding="utf-8")
    assert missing_rows(copy.read_text(encoding="utf-8")) == {
        "repro-shard-plan/1"}
