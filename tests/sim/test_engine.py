"""Unit tests for repro.sim.engine."""

import random

import pytest

from repro.core.policies import (
    AverageImmediateLinearPolicy,
    DelayedLinearPolicy,
    make_policy,
)
from repro.sim.clock import SimulationClock
from repro.sim.engine import PolicySimulation, simulate_trip
from repro.sim.speed_curves import (
    CityCurve,
    ConstantCurve,
    HighwayCurve,
    PiecewiseConstantCurve,
)
from repro.sim.trip import Trip
from repro.sim.vehicle import OnboardComputer
from tests.oracle.policy_reference import assert_same, reference_run

C = 5.0


class TestConstantSpeedBaseline:
    def test_no_updates_no_cost(self):
        """An object at exactly its declared speed never updates and
        accrues no deviation cost."""
        trip = Trip.synthetic(ConstantCurve(30.0, 1.0))
        result = simulate_trip(trip, DelayedLinearPolicy(C))
        assert result.metrics.num_updates == 0
        assert result.metrics.deviation_cost == pytest.approx(0.0, abs=1e-9)
        assert result.metrics.total_cost == pytest.approx(0.0, abs=1e-9)
        assert result.metrics.max_deviation == pytest.approx(0.0, abs=1e-9)


class TestExample1:
    def test_dl_first_update_time(self, example1_trip):
        result = simulate_trip(example1_trip, DelayedLinearPolicy(C))
        assert result.updates
        assert result.updates[0].time == pytest.approx(3.74, abs=0.05)

    def test_metrics_consistency(self, example1_trip):
        result = simulate_trip(example1_trip, DelayedLinearPolicy(C))
        m = result.metrics
        assert m.total_cost == pytest.approx(
            C * m.num_updates + m.deviation_cost
        )
        assert m.num_updates == len(result.updates)
        assert m.avg_deviation == pytest.approx(
            m.deviation_integral / m.duration
        )
        assert m.max_deviation >= m.avg_deviation

    def test_uniform_cost_equals_integral(self, example1_trip):
        """With the uniform cost function, deviation cost = integral."""
        result = simulate_trip(example1_trip, DelayedLinearPolicy(C))
        assert result.metrics.deviation_cost == pytest.approx(
            result.metrics.deviation_integral
        )


class TestSeries:
    def test_series_recorded_on_demand(self, example1_trip):
        result = simulate_trip(example1_trip, DelayedLinearPolicy(C),
                               record_series=True)
        series = result.series
        assert series is not None
        n = len(series.times)
        assert n == len(series.deviations) == len(series.uncertainty_bounds)
        assert n == len(series.database_travel) == len(series.actual_travel)
        assert n == int(round(example1_trip.duration * 60))

    def test_series_off_by_default(self, example1_trip):
        assert simulate_trip(example1_trip, DelayedLinearPolicy(C)).series is None

    def test_deviation_matches_travel_difference(self, example1_trip):
        result = simulate_trip(example1_trip, DelayedLinearPolicy(C),
                               record_series=True)
        s = result.series
        for dev, db, actual in zip(
            s.deviations, s.database_travel, s.actual_travel
        ):
            assert dev == pytest.approx(abs(actual - db), abs=1e-9)


class TestBoundSoundness:
    """The DBMS-side bound must dominate the actual deviation."""

    @pytest.mark.parametrize("name", ["dl", "ail", "cil"])
    def test_deviation_within_bound(self, name, rng):
        from repro.sim.speed_curves import CityCurve

        trip = Trip.synthetic(CityCurve(30.0, rng))
        policy = make_policy(name, C)
        result = simulate_trip(trip, policy, record_series=True)
        dt = 1.0 / 60.0
        slack = trip.max_speed * dt * 2 + 1e-6  # one-tick discretisation
        for dev, bound in zip(
            result.series.deviations, result.series.uncertainty_bounds
        ):
            assert dev <= bound + slack


class TestThresholdBehaviour:
    def test_more_updates_at_lower_cost(self):
        curve = PiecewiseConstantCurve([(5.0, 1.0), (5.0, 0.3)] * 3)
        trip = Trip.synthetic(curve)
        cheap = simulate_trip(trip, AverageImmediateLinearPolicy(1.0))
        expensive = simulate_trip(trip, AverageImmediateLinearPolicy(20.0))
        assert cheap.metrics.num_updates >= expensive.metrics.num_updates
        assert cheap.metrics.num_updates > 0

    def test_periodic_policy_update_count(self):
        trip = Trip.synthetic(ConstantCurve(10.0, 1.0))
        result = simulate_trip(trip, make_policy("periodic", C, period=2.0))
        assert result.metrics.num_updates == 5

    def test_traditional_updates_by_distance(self):
        trip = Trip.synthetic(ConstantCurve(10.0, 1.0))
        result = simulate_trip(
            trip, make_policy("traditional", C, precision=2.0)
        )
        # 10 miles travelled, one update every 2 miles.
        assert result.metrics.num_updates == 5


class TestEngineConfiguration:
    def test_explicit_max_speed(self, example1_trip):
        sim = PolicySimulation(
            example1_trip, DelayedLinearPolicy(C), max_speed=2.0
        )
        assert sim.max_speed == 2.0

    def test_default_max_speed_from_trip(self, example1_trip):
        sim = PolicySimulation(example1_trip, DelayedLinearPolicy(C))
        assert sim.max_speed == example1_trip.max_speed

    def test_coarser_dt_still_converges(self, example1_trip):
        fine = simulate_trip(example1_trip, DelayedLinearPolicy(C),
                             dt=1.0 / 60.0)
        coarse = simulate_trip(example1_trip, DelayedLinearPolicy(C),
                               dt=1.0 / 6.0)
        assert coarse.metrics.num_updates == fine.metrics.num_updates
        assert coarse.metrics.total_cost == pytest.approx(
            fine.metrics.total_cost, rel=0.2
        )


class TestOneRunTwoLoops:
    """``simulate_trip`` sends dl/ail/cil to the kernel, so "equals
    ``simulate_trip``" does not say "equals the reference loop": these
    hold the two loops, and the tick grid under both, to each other."""

    DT = 1.0 / 30.0

    @pytest.mark.parametrize("policy_name", ["dl", "ail", "cil"])
    @pytest.mark.parametrize("curve_class", [CityCurve, HighwayCurve])
    @pytest.mark.parametrize("cost", [0.0, 0.5, 5.0])
    def test_generic_loop_equals_fast_path(self, policy_name, curve_class,
                                           cost):
        trip = Trip.synthetic(curve_class(15.0, random.Random(21)))
        sim = PolicySimulation(trip, make_policy(policy_name, cost),
                               dt=self.DT)
        generic = reference_run(sim.grid, make_policy(policy_name, cost))
        assert_same(sim.run(), generic)
        assert_same(simulate_trip(trip, make_policy(policy_name, cost),
                                  dt=self.DT), generic)

    @pytest.mark.parametrize("policy_name, kwargs", [
        ("dl", {}), ("ail", {}), ("fixed-threshold", {"bound": 0.3}),
        ("adaptive", {}),
    ])
    def test_grid_backed_run_equals_stepping_the_trip(self, policy_name,
                                                      kwargs):
        trip = Trip.synthetic(CityCurve(12.5, random.Random(8)))
        computer = OnboardComputer(trip, make_policy(policy_name, 0.5,
                                                     **kwargs))
        for _, t in SimulationClock(trip.duration, self.DT).ticks():
            computer.step(t)
        result = simulate_trip(trip, make_policy(policy_name, 0.5, **kwargs),
                               dt=self.DT)
        assert result.updates == computer.events and computer.events
