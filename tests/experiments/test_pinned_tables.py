"""E15, E16 and E18 at full size, as rendered before PR 21.

The three experiments whose tick loops were replaced by the policy
engine (route reckoning is ``fixed-threshold``, the multi-leg driver
owns an ``OnboardComputer``, a noisy run is a lane on a noisy grid).
``data/extension_tables.json`` holds their rendered text from the
commit before; not a digit may move.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.extensions import table_route_change, table_xy_vs_route
from repro.experiments.robustness import table_noise_robustness
from repro.experiments.sweep import SweepSpec

PINS = json.loads(
    (Path(__file__).parent / "data" / "extension_tables.json").read_text())

SPEC = SweepSpec()  # the full report's clock, as run_all() passes it

RENDER = {
    "E15": lambda: table_xy_vs_route(dt=SPEC.dt).render(),
    "E16": lambda: table_route_change().render(),
    "E18": lambda: table_noise_robustness(
        num_curves=5, duration=SPEC.duration, dt=SPEC.dt).render(precision=4),
}


@pytest.mark.parametrize("experiment_id", sorted(RENDER))
def test_full_size_table_is_unchanged(experiment_id):
    assert RENDER[experiment_id]() == PINS[experiment_id]
