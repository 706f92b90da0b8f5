"""Non-finite parameters are refused, not simulated.

``nan <= 0`` and ``nan < 0`` are both ``False``, so a guard written
that way lets NaN through: the run then compares every measurement with
NaN, never fires (or reports NaN metrics), and hands back a confident
answer — ``violations=0`` from a noisy run whose every reading was NaN.
Each boundary below raises the domain error its neighbouring check
raises.  An infinite update cost stays legal: "never send".
"""

import math
import random

import pytest

from repro.core.adaptive import AdaptivePolicy
from repro.core.baselines import (
    FixedThresholdPolicy,
    PeriodicPolicy,
    TraditionalPointPolicy,
)
from repro.core.cost import StepDeviationCost
from repro.core.horizon import HorizonCostPolicy
from repro.core.policies import make_policy
from repro.errors import PolicyError, SimulationError
from repro.sim.clock import SimulationClock
from repro.sim.engine import simulate_trip
from repro.sim.noise import NoisyTripView, simulate_trip_with_noise
from repro.sim.speed_curves import CityCurve, ConstantCurve
from repro.sim.trip import Trip
from repro.sim.xy_reckoning import (
    simulate_route_dead_reckoning,
    simulate_xy_dead_reckoning,
)

NAN = math.nan
INF = math.inf


@pytest.fixture(scope="module")
def trip():
    return Trip.synthetic(CityCurve(10.0, random.Random(5)))


@pytest.mark.parametrize("epsilon", [NAN, INF, -INF])
def test_noise_magnitude(trip, epsilon):
    with pytest.raises(SimulationError):
        NoisyTripView(trip, epsilon, seed=1)
    for inflate in (False, True):
        with pytest.raises(SimulationError):
            simulate_trip_with_noise(trip, make_policy("ail", 5.0), epsilon,
                                     inflate_bounds=inflate)


@pytest.mark.parametrize("name", ["dl", "ail", "cil", "fixed-threshold",
                                  "traditional", "periodic", "horizon"])
def test_update_cost(name):
    with pytest.raises(PolicyError):
        make_policy(name, NAN)
    assert make_policy(name, INF).update_cost == INF


@pytest.mark.parametrize("build", [
    lambda value: FixedThresholdPolicy(1.0, bound=value),
    lambda value: PeriodicPolicy(1.0, period=value),
    lambda value: TraditionalPointPolicy(1.0, precision=value),
], ids=["bound", "period", "precision"])
def test_baseline_thresholds(build):
    with pytest.raises(PolicyError):
        build(NAN)


@pytest.mark.parametrize("build", [
    lambda value: AdaptivePolicy(5.0, volatility_threshold=value),
    lambda value: AdaptivePolicy(5.0, window_minutes=value),
], ids=["volatility_threshold", "window_minutes"])
def test_adaptive_regime_parameters(build):
    """NaN is refused; an infinite threshold (never volatile) or window
    (every sample kept) stays legal."""
    with pytest.raises(PolicyError):
        build(NAN)
    build(INF)


@pytest.mark.parametrize("build, infinite", [
    (lambda value: HorizonCostPolicy(5.0, horizon=value), False),
    (lambda value: HorizonCostPolicy(5.0, horizon=5.0,
                                     integration_step=value), False),
    (lambda value: StepDeviationCost(value), True),
], ids=["horizon", "integration_step", "step_threshold"])
def test_kernel_lane_constants(build, infinite):
    """Each becomes a per-lane constant of a kernel pass: NaN is refused.
    An infinite step threshold stays legal; an infinite horizon is
    refused (``C/inf`` is the free-updates trigger, a zero bound), and
    with it an infinite integration step, which is at most the horizon."""
    with pytest.raises(PolicyError):
        build(NAN)
    if infinite:
        build(INF)
    else:
        with pytest.raises(PolicyError):
            build(INF)


@pytest.mark.parametrize("simulate", [simulate_route_dead_reckoning,
                                      simulate_xy_dead_reckoning])
def test_reckoning_threshold(trip, simulate):
    with pytest.raises(SimulationError):
        simulate(trip, NAN)


@pytest.mark.parametrize("name", ["ail", "fixed-threshold"])
def test_speed_ceiling(trip, name):
    """Kernel and reference-loop policies alike: the engine refuses."""
    with pytest.raises(SimulationError):
        simulate_trip(trip, make_policy(name, 5.0), max_speed=NAN)


@pytest.mark.parametrize("dt", [NAN, INF, -INF])
def test_tick_length(trip, dt):
    with pytest.raises(SimulationError):
        SimulationClock(10.0, dt)
    with pytest.raises(SimulationError):
        simulate_trip(trip, make_policy("ail", 5.0), dt=dt)
    with pytest.raises(SimulationError):
        simulate_trip_with_noise(trip, make_policy("ail", 5.0), 0.05, dt=dt)


@pytest.mark.parametrize("duration", [NAN, INF])
def test_duration(duration):
    with pytest.raises(SimulationError):
        SimulationClock(duration, 1.0)
    with pytest.raises(SimulationError):
        ConstantCurve(duration, 1.0)
