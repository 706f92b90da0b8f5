"""Observed outputs, pinned byte for byte.

The fixtures under ``tests/obs/data/`` were written by the commit
*before* the hooks moved onto the one probe (``python
tests/obs/test_golden_outputs.py`` rewrites them from the current
tree), so "every observed output is byte-identical" is a test, not a
claim.  Only wall-clock samples are masked: the ``_sum`` / ``_bucket``
/ quantile lines of ``*_seconds`` histograms.  Every ``# HELP`` /
``# TYPE`` line, label set, counter, gauge and ``_count`` is compared
as written.
"""

import hashlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

from repro.cli import main

DATA = Path(__file__).parent / "data"

STATS = ["stats", "--name", "taxi", "--size", "40", "--duration", "10",
         "--queries", "40", "--seed", "3", "--format", "prom"]
PROM_RUNS = {
    "stats_sequential.prom": [],
    "stats_batch.prom": ["--batch"],
    "stats_batch_shards4.prom": ["--batch", "--shards", "4"],
}
SPANS = ["stats", "--name", "taxi", "--size", "12", "--duration", "10",
         "--queries", "12", "--seed", "3", "--format", "prom",
         "--profile"]
TRACE = ["trace", "record", "--size", "8", "--duration", "12", "--seed",
         "11", "--queries", "25"]
TRACE_RUNS = {"plain": [], "shards4": ["--shards", "4"],
              "shards4_batch": ["--shards", "4", "--batch"]}

_TIMING = re.compile(
    r"^(\w+_seconds(?:_sum|_bucket)?(?:\{[^}]*\})?) \S+$")


def run(argv):
    out = io.StringIO()
    assert main(argv, out=out) == 0
    return out.getvalue()


def masked_prometheus(text):
    """``text`` with the value of every wall-clock sample replaced."""
    lines = []
    for line in text.splitlines():
        match = _TIMING.match(line)
        if match:
            line = f"{match.group(1)} <seconds>"
        lines.append(line)
    return "\n".join(lines) + "\n"


def span_tree(path):
    """One line per exported span, in file order: the names from its
    root down, then its attributes."""
    spans = [json.loads(line) for line in Path(path).read_text().splitlines()]
    by_id = {span["span_id"]: span for span in spans}
    lines = []
    for span in spans:
        names = [span["name"]]
        parent = span["parent_id"]
        while parent is not None:
            names.append(by_id[parent]["name"])
            parent = by_id[parent]["parent_id"]
        lines.append("/".join(reversed(names)) + " "
                     + json.dumps(span["attrs"], sort_keys=True))
    return "\n".join(lines) + "\n"


def render(name, tmp):
    if name in PROM_RUNS:
        return masked_prometheus(run(STATS + PROM_RUNS[name]))
    if name == "stats_profile.spans":
        path = str(Path(tmp) / "spans.jsonl")
        run(SPANS + ["--spans-out", path])
        return span_tree(path)
    assert name == "trace_record.sha256"
    digests = {}
    for label, extra in TRACE_RUNS.items():
        path = Path(tmp) / f"{label}.jsonl"
        run(TRACE + extra + ["--out", str(path)])
        raw = path.read_bytes()
        digests[label] = {"events": raw.count(b"\n") - 1,
                          "sha256": hashlib.sha256(raw).hexdigest()}
    return json.dumps(digests, indent=1, sort_keys=True) + "\n"


FIXTURES = [*PROM_RUNS, "stats_profile.spans", "trace_record.sha256"]


@pytest.mark.parametrize("name", FIXTURES)
def test_observed_output_is_byte_identical(name, tmp_path):
    assert render(name, tmp_path) == (DATA / name).read_text()


def test_masking_keeps_counts_and_non_timing_lines():
    text = ("# HELP a_seconds A.\n"
            'a_seconds_bucket{le="0.1"} 3\n'
            "a_seconds_sum 0.25\n"
            "a_seconds_count 3\n"
            'a_seconds{quantile="0.5"} 0.1\n'
            "fleet_messages_per_minute 4.5\n")
    assert masked_prometheus(text) == (
        "# HELP a_seconds A.\n"
        'a_seconds_bucket{le="0.1"} <seconds>\n'
        "a_seconds_sum <seconds>\n"
        "a_seconds_count 3\n"
        'a_seconds{quantile="0.5"} <seconds>\n'
        "fleet_messages_per_minute 4.5\n")


if __name__ == "__main__":
    import tempfile

    DATA.mkdir(exist_ok=True)
    for fixture in FIXTURES:
        with tempfile.TemporaryDirectory() as scratch:
            (DATA / fixture).write_text(render(fixture, scratch))
        print(f"wrote {DATA / fixture}", file=sys.stderr)
