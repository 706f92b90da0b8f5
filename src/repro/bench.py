"""Where a benchmark run happened: the environment fingerprint.

``benchmarks/e2e/run.py`` stamps its samples file with
:func:`environment_fingerprint` so that ledgers from different hosts
are visibly different.  The microbenchmarks under ``benchmarks/`` are
timed by pytest-benchmark, which records its own machine info.
"""

from __future__ import annotations

import os
import platform
import subprocess


def environment_fingerprint() -> dict:
    """Where this run happened: enough to judge comparability.

    Two fingerprints agreeing on ``platform`` + ``cpu_count`` +
    ``python`` are same-machine-comparable; anything else is an
    advisory cross-machine comparison (see EXPERIMENTS.md).
    """
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "git_sha": _git_sha(),
    }


def _git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except OSError:  # pragma: no cover - git missing entirely
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


__all__ = ["environment_fingerprint"]
