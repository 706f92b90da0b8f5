"""``PolicySimulation.run`` against the reference loop, float for float.

``run`` sends a dl/ail/cil policy to the kernel as a batch of one and
everything else to ``_run_generic``.  The determinism guarantee of the
execution layer rests on the kernel reproducing the reference tick loop
*exactly* — same floats, not approximately-equal floats — so the other
side of every comparison here is ``_run_generic`` by name
(``tests/oracle/policy_reference.py``), on ``repr``.
"""

import random

import pytest

from repro.core.cost import StepDeviationCost, UniformDeviationCost
from repro.core.horizon import HorizonCostPolicy
from repro.core.policies import (
    AverageImmediateLinearPolicy,
    CurrentImmediateLinearPolicy,
    DelayedLinearPolicy,
    make_policy,
)
from repro.core.speed import BlendedSpeed, TripAverageSpeed
from repro.errors import SimulationError
from repro.exec import GridTrip, TickGrid
from repro.sim.engine import PolicySimulation, simulate_trip, supports_fast_path
from repro.sim.lanes import simulate_lanes
from repro.sim.speed_curves import CityCurve, HighwayCurve, RushHourCurve
from repro.sim.trip import Trip
from repro.vec.batch import VecTripBatch
from repro.vec.engine import simulate_batch
from tests.oracle.policy_reference import assert_same, reference_run
from tests.oracle.test_fleet_differential import check as check_fleet

C = 5.0
DT = 1.0 / 30.0

CURVES = {
    "city": CityCurve,
    "highway": HighwayCurve,
    "rush-hour": RushHourCurve,
}


def build_trip(kind="city", duration=20.0, seed=11):
    return Trip.synthetic(CURVES[kind](duration, random.Random(seed)))


@pytest.mark.parametrize("policy_name", ["dl", "ail", "cil"])
@pytest.mark.parametrize("kind", sorted(CURVES))
def test_fast_path_exactly_matches_generic(policy_name, kind):
    trip = build_trip(kind)
    grid = TickGrid.build(trip, DT)
    generic = reference_run(grid, make_policy(policy_name, C))
    assert_same(simulate_trip(trip, make_policy(policy_name, C), dt=DT),
                generic)
    assert_same(PolicySimulation(trip, make_policy(policy_name, C), dt=DT,
                                 grid=grid).run(), generic)


@pytest.mark.parametrize("policy_name", ["dl", "ail", "cil"])
def test_fast_path_matches_across_costs(policy_name):
    trip = build_trip()
    grid = TickGrid.build(trip, DT)
    for cost in (0.0, 0.5, 2.0, 10.0, 40.0):  # a free update among them
        fast = PolicySimulation(
            trip, make_policy(policy_name, cost), dt=DT, grid=grid
        ).run()
        assert_same(fast, reference_run(grid, make_policy(policy_name, cost)),
                    cost)


@pytest.mark.parametrize("policy_name", ["dl", "ail", "cil"])
@pytest.mark.parametrize("factor", [0.0, 0.4, 1.0, 2.5])
def test_max_speed_override_reaches_the_kernel(policy_name, factor):
    """``max_speed=`` is not the grid's: below the declared speed the
    speed gap clamps to zero, above the trip's own it widens the bound."""
    trip = build_trip("rush-hour")
    grid = TickGrid.build(trip, DT)
    max_speed = factor * trip.max_speed
    fast = simulate_trip(trip, make_policy(policy_name, 0.5), dt=DT,
                         max_speed=max_speed)
    assert_same(fast, reference_run(grid, make_policy(policy_name, 0.5),
                                    max_speed=max_speed))
    if factor != 1.0:
        plain = simulate_trip(trip, make_policy(policy_name, 0.5), dt=DT)
        assert fast.metrics.avg_uncertainty != plain.metrics.avg_uncertainty


@pytest.mark.parametrize("policy_name", ["dl", "ail", "cil"])
@pytest.mark.parametrize("duration,dt", [(3.05, 0.1), (4.33, 1.0 / 30.0)])
def test_duration_that_is_no_multiple_of_dt(policy_name, duration, dt):
    trip = build_trip("city", duration=duration)
    grid = TickGrid.build(trip, dt)
    assert grid.num_ticks * dt < duration
    fast = simulate_trip(trip, make_policy(policy_name, 0.05), dt=dt)
    assert fast.metrics.duration == duration
    assert_same(fast, reference_run(grid, make_policy(policy_name, 0.05)))


@pytest.mark.parametrize("collect_events", [True, False])
def test_lanes_match_the_reference_with_and_without_events(collect_events):
    grids = [TickGrid.build(build_trip(kind, 6.0, seed), 0.1)
             for seed, kind in enumerate(sorted(CURVES) * 2)]
    other = {"speed_predictor": TripAverageSpeed()}  # no kernel lane
    lanes = [(grid, make_policy(name, cost, **kwargs))
             for grid in grids
             for name, cost, kwargs in (
                 ("dl", 0.3, {}), ("ail", 0.0, {}), ("ail", 0.3, {}),
                 ("fixed-threshold", 0.3, {}), ("periodic", 0.3, other))]
    results = simulate_lanes(lanes, 0.1, collect_events=collect_events)
    assert any(result.updates for result in results)
    for (grid, policy), result in zip(lanes, results):
        reference = reference_run(grid, policy)
        assert repr(result.metrics) == repr(reference.metrics)
        # Only a kernel pass can skip the event list.
        if collect_events or not supports_fast_path(policy):
            assert repr(result.updates) == repr(reference.updates)
        else:
            assert result.updates == []


class HesitantDl(DelayedLinearPolicy):
    """dl, except that it never reports twice within a minute."""

    name = "hesitant-dl"

    def decide(self, state):
        if state.elapsed < 1.0:
            return self._no_update(state)
        return super().decide(state)


def test_a_subclass_runs_its_own_decide():
    """The kernel hardcodes dl's ``decide``, so a subclass that
    overrides it is not a kernel lane — anywhere."""
    assert not supports_fast_path(HesitantDl(0.05))
    trip = build_trip("city", duration=8.0)
    grid = TickGrid.build(trip, 0.1)
    hesitant = reference_run(grid, HesitantDl(0.05))
    plain = reference_run(grid, DelayedLinearPolicy(0.05))
    assert hesitant.updates
    assert repr(hesitant.updates) != repr(plain.updates)
    assert hesitant.metrics.policy == "hesitant-dl"
    assert_same(simulate_trip(trip, HesitantDl(0.05), dt=0.1), hesitant)
    # Woven into a group of plain dl lanes of the same cost and layout.
    lanes = [(grid, DelayedLinearPolicy(0.05)) for _ in range(4)]
    lanes[2:2] = [(grid, HesitantDl(0.05))]
    results = simulate_lanes(lanes, 0.1)
    assert_same(results[2], hesitant)
    for i in (0, 1, 3, 4):
        assert_same(results[i], plain, i)
    with pytest.raises(SimulationError):
        simulate_batch(VecTripBatch.from_grids([grid]), HesitantDl(0.05))
    # A fleet: the tick-by-tick reference calls each vehicle's decide.
    vehicles = [("dl", 0.05, 3.05)] * 3
    vehicles[1:1] = [(HesitantDl, 0.05, 3.05)]
    assert check_fleet(vehicles, 0.1, 7, None, False)


def test_grid_trip_generic_path_matches_for_baselines():
    """Baselines with a speed predictor outside the kernel table still
    run against the cached grid via GridTrip, byte-identically."""
    trip = build_trip()
    grid = TickGrid.build(trip, DT)
    for name, kwargs in (
            ("periodic", {"period": 0.4, "speed_predictor": BlendedSpeed(0.5)}),
            ("fixed-threshold", {"bound": 0.5,
                                 "speed_predictor": TripAverageSpeed()})):
        policy = make_policy(name, C, **kwargs)
        assert not supports_fast_path(policy)
        generic = simulate_trip(trip, policy, dt=DT)
        cached = PolicySimulation(
            GridTrip(grid), make_policy(name, C, **kwargs), dt=DT, grid=grid
        ).run()
        assert cached.metrics == generic.metrics
        assert cached.updates == generic.updates


class SquaredCost(UniformDeviationCost):
    """Not the uniform cost, whatever it inherits."""

    def rate(self, deviation):
        return deviation * deviation


def test_supports_fast_path_requires_uniform_cost():
    """The step cost is an integrand, so any row whose decision does not
    read the cost function takes it; the horizon rule does read it, and
    no row takes a cost function outside the table."""
    assert supports_fast_path(DelayedLinearPolicy(C))
    assert supports_fast_path(AverageImmediateLinearPolicy(C))
    assert supports_fast_path(CurrentImmediateLinearPolicy(C))
    assert supports_fast_path(
        DelayedLinearPolicy(C, cost_function=StepDeviationCost(0.3)))
    assert supports_fast_path(HorizonCostPolicy(C))
    assert not supports_fast_path(
        HorizonCostPolicy(C, cost_function=StepDeviationCost(0.3)))
    assert not supports_fast_path(
        DelayedLinearPolicy(C, cost_function=SquaredCost()))


def test_non_uniform_cost_falls_back_to_generic():
    trip = build_trip()
    grid = TickGrid.build(trip, DT)
    stepped = lambda: HorizonCostPolicy(
        1.0, cost_function=StepDeviationCost(0.3))
    generic = reference_run(grid, stepped())
    assert generic.updates
    cached = PolicySimulation(trip, stepped(), dt=DT, grid=grid).run()
    assert_same(cached, generic)


def test_record_series_matches_generic_path():
    trip = build_trip()
    grid = TickGrid.build(trip, DT)
    with_grid = PolicySimulation(
        trip, make_policy("ail", C), dt=DT, grid=grid
    ).run(record_series=True)
    without = PolicySimulation(
        trip, make_policy("ail", C), dt=DT
    )._run_generic(record_series=True)
    assert with_grid.series is not None
    assert with_grid.series.times == without.series.times
    assert with_grid.series.deviations == without.series.deviations
    assert with_grid.metrics == without.metrics


def test_mismatched_grid_rejected():
    trip = build_trip()
    grid = TickGrid.build(trip, DT)
    with pytest.raises(SimulationError):
        PolicySimulation(trip, make_policy("ail", C), dt=DT / 2, grid=grid)
    # Same dt, same 600 ticks, another trip's duration: the kernel reads
    # the grid's, the reference loop the clock's.
    longer = TickGrid.build(build_trip(duration=20.01), DT)
    assert longer.num_ticks == grid.num_ticks
    with pytest.raises(SimulationError):
        PolicySimulation(trip, make_policy("ail", C), dt=DT, grid=longer)
