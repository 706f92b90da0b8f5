"""Benchmarks of the ``repro.lint`` static-analysis engine.

Not a paper artefact — advisory evidence that the paper-invariant
lint run (every rule, one module at a time) stays cheap enough to gate
CI and pre-commit runs.  ``pytest
benchmarks/bench_lint.py --benchmark-only`` times both kernels.
"""

from pathlib import Path

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


def lint_src():
    """One full lint run (every rule) over the src/repro tree."""
    return lint_paths([REPO_ROOT / "src" / "repro"], Config(root=REPO_ROOT))


def lint_single_module_x100():
    """Re-lint one dirty in-memory module 100 times (parse + rules)."""
    total = 0
    for _ in range(100):
        report = lint_source(_SYNTHETIC_MODULE, "sim/synthetic.py")
        total += len(report.findings)
    return total


def test_lint_src_kernel_runs(benchmark):
    report = benchmark.pedantic(lint_src, rounds=3)
    assert report.files > 0
    assert report.findings == []


def test_single_module_kernel_counts_findings(benchmark):
    # RPR101 + RPR102 + RPR302 per pass.
    assert benchmark(lint_single_module_x100) == 100 * 3
