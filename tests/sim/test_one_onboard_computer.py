"""One onboard computer, by construction.

PAPER.md §3.1–3.3 defines one computation — observe the deviation,
evaluate the policy, apply the update, re-base the bound — and ``src/``
steps it in two places: ``PolicySimulation._run_generic`` (through
``OnboardComputer``) and the kernel.  Before PR 21 four more copies had
grown (noisy runs, route reckoning, the multi-leg driver, the series
fork).  A copy needs an ``OnboardState`` to hand a policy, a
``.decide(`` call to evaluate it, or a computer of its own; this test
names the only files that may hold each, so the next copy fails tier-1
the day it is written.
"""

import re
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).parent

ALLOWED = {
    # built from the computer's own bookkeeping, nowhere else
    r"\bOnboardState\(": ["sim/vehicle.py"],
    # the reference loop, the computer's step(), a policy delegating
    r"\.decide\(": ["core/adaptive.py", "sim/engine.py", "sim/vehicle.py"],
    # the reference loop, and the multi-leg driver (which steps it)
    r"\bOnboardComputer\(": ["sim/engine.py", "sim/multileg.py"],
}


@pytest.mark.parametrize("pattern", sorted(ALLOWED))
def test_only_these_files_step_a_policy(pattern):
    found = sorted(
        path.relative_to(SRC).as_posix() for path in SRC.rglob("*.py")
        if re.search(pattern, path.read_text(encoding="utf-8")))
    assert found == ALLOWED[pattern]
