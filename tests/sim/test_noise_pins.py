"""What a noisy run printed before it became a lane on a noisy grid.

``tests/sim/data/noisy_runs.json`` holds ``repr(simulate_trip_with_noise
(...))`` as computed by the tick loop ``sim/noise.py`` carried until
PR 21 (an ``OnboardComputer`` over a ``NoisyTripView`` with the audit
inlined), for kernel policies (ail, dl, cil) and reference-loop ones
(fixed-threshold, traditional) alike.  The grid + reduction that
replaced it must print the same: noise stream, clamp, update count,
violations and the last digit of ``max_excess``.
"""

import json
import random
from pathlib import Path

import pytest

from repro.core.policies import make_policy
from repro.sim.noise import simulate_trip_with_noise
from repro.sim.speed_curves import CityCurve
from repro.sim.trip import Trip

PINS = json.loads(
    (Path(__file__).parent / "data" / "noisy_runs.json").read_text())
TRIPS = {11: 15.0, 29: 22.0}  # CityCurve seed (and noise seed) -> minutes


@pytest.fixture(scope="module")
def trips():
    return {seed: Trip.synthetic(CityCurve(duration, random.Random(seed)))
            for seed, duration in TRIPS.items()}


@pytest.mark.parametrize("key", sorted(PINS))
def test_noisy_run_is_unchanged(trips, key):
    seed, name, epsilon, inflate = key.split("/")
    result = simulate_trip_with_noise(
        trips[int(seed)], make_policy(name, 5.0), float(epsilon),
        seed=int(seed), dt=1.0 / 20.0, inflate_bounds=inflate == "True")
    assert repr(result) == PINS[key]


def test_the_pins_cover_both_loops_and_a_leak():
    assert len(PINS) == 2 * 5 * 3 * 2
    assert any("violations=0" not in pinned for pinned in PINS.values())
