"""Benchmarks of the ``repro.lint`` static-analysis engine.

Not a paper artefact — advisory evidence that the paper-invariant
lint run (per-file rules and the whole-program rules, one run) stays
cheap enough to gate CI and pre-commit runs.  The cases ride the
unified harness (``repro bench run``) and have entries in the
committed fast baseline; a case missing from a baseline compares as
"new" and never fails the regression gate.
"""

from pathlib import Path

from repro.bench import benchmark as register_benchmark
from repro.lint import Config, lint_paths, lint_source

REPO_ROOT = Path(__file__).resolve().parents[1]

_SYNTHETIC_MODULE = (
    "import random\n"
    "import time\n"
    "\n"
    "\n"
    "def jitter(values, pad=[]):\n"
    "    out = list(pad)\n"
    "    for v in values:\n"
    "        out.append(v + random.random())\n"
    "    return out\n"
    "\n"
    "\n"
    "def stamp():\n"
    "    return time.time()\n"
)


@register_benchmark("lint.src_repro", group="lint")
def harness_lint_src():
    """One full lint run (every rule, the call graph included) over
    the src/repro tree."""
    config = Config(root=REPO_ROOT)
    target = REPO_ROOT / "src" / "repro"

    def run():
        return lint_paths([target], config)

    return run


@register_benchmark("lint.single_module_x100", group="lint")
def harness_lint_single_module():
    """Re-lint one dirty in-memory module 100 times (parse + rules)."""

    def run():
        total = 0
        for _ in range(100):
            report = lint_source(_SYNTHETIC_MODULE, "sim/synthetic.py")
            total += len(report.findings)
        return total

    return run


def test_lint_src_kernel_runs():
    report = harness_lint_src()()
    assert report.files > 0
    assert report.findings == []


def test_single_module_kernel_counts_findings():
    # RPR101 + RPR102 + RPR302 per pass.
    assert harness_lint_single_module()() == 100 * 3
