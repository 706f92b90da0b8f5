"""Unit tests for repro.exec.cache (tick grids and the trip cache)."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.exec import GridTrip, TickGrid, TripTickCache
from repro.sim.clock import SimulationClock
from repro.sim.speed_curves import (
    CityCurve,
    PiecewiseConstantCurve,
    standard_curve_set,
)
from repro.sim.trip import Trip

import random

DT = 1.0 / 30.0


def city_trip(duration=10.0, seed=5):
    return Trip.synthetic(CityCurve(duration, random.Random(seed)))


def reference_grid(trip, dt):
    """The scalar ``TickGrid.build``: one trip call per tick and quantity."""
    clock = SimulationClock(trip.duration, dt)
    times = tuple(i * dt for i in range(clock.num_ticks + 1))
    travel = tuple(trip.distance_travelled(t) for t in times)
    speeds = tuple(trip.speed(t) for t in times)
    return times, travel, speeds


class TestTickGrid:
    @pytest.mark.parametrize("dt", [DT, 1.0 / 60.0, 0.1, 0.7, 3.0])
    def test_build_equals_the_scalar_comprehensions(self, dt):
        curves = standard_curve_set(random.Random(1998), count=10)
        curves += [PiecewiseConstantCurve([(2.0, 1.0), (3.0, 0.0)]),
                   CityCurve(7.3, random.Random(4))]
        for curve in curves:
            trip = Trip.synthetic(curve)
            grid = TickGrid.build(trip, dt)
            times, travel, speeds = reference_grid(trip, dt)
            assert grid.num_ticks == len(times) - 1
            assert grid.max_speed == trip.max_speed
            assert grid.duration == trip.duration
            assert tuple(grid.times.tolist()) == times
            assert tuple(grid.travel.tolist()) == travel
            assert tuple(grid.speeds.tolist()) == speeds

    def test_keeps_the_trips_profile_when_it_is_the_travel(self):
        # Sweep trips at 1-s ticks: the tick layout is the integration
        # layout, so the grid holds the trip's own array, not a copy.
        from repro.experiments.sweep import SweepSpec, build_curves

        spec = SweepSpec(num_curves=4, seed=3)
        for curve in build_curves(spec):
            trip = Trip.synthetic(curve)
            grid = TickGrid.build(trip, spec.dt)
            assert grid.travel is trip._cumulative
            coarse = TickGrid.build(trip, 0.5)
            assert coarse.travel is not trip._cumulative
            assert not np.shares_memory(coarse.travel, trip._cumulative)
            _, travel, _ = reference_grid(trip, 0.5)
            assert tuple(coarse.travel.tolist()) == travel

    def test_holds_read_only_float64_arrays(self):
        grid = TickGrid.build(city_trip(), DT)
        for values in (grid.times, grid.travel, grid.speeds):
            assert isinstance(values, np.ndarray)
            assert values.dtype == np.float64
            assert values.shape == (grid.num_ticks + 1,)
            with pytest.raises(ValueError):
                values[0] = 1.0

    def test_accepts_sequences_and_rejects_ragged_ones(self):
        grid = TickGrid(dt=1.0, duration=2.0, max_speed=1.0,
                        times=(0.0, 1.0, 2.0), travel=[0.0, 0.5, 1.0],
                        speeds=np.array([0.5, 0.5, 0.5]))
        assert grid.num_ticks == 2
        assert grid.travel.tolist() == [0.0, 0.5, 1.0]
        with pytest.raises(SimulationError):
            TickGrid(dt=1.0, duration=2.0, max_speed=1.0,
                     times=(0.0, 1.0, 2.0), travel=(0.0, 0.5),
                     speeds=(0.5, 0.5, 0.5))

    def test_matches_clock_grid(self):
        trip = city_trip()
        grid = TickGrid.build(trip, DT)
        clock = SimulationClock(trip.duration, DT)
        assert grid.num_ticks == clock.num_ticks
        for i, t in clock.ticks():
            assert grid.times[i] == t

    def test_exact_kinematics(self):
        """Grid samples are the exact floats the trip would produce."""
        trip = city_trip()
        grid = TickGrid.build(trip, DT)
        for i, t in enumerate(grid.times):
            assert grid.travel[i] == trip.distance_travelled(t)
            assert grid.speeds[i] == trip.speed(t)

    def test_index_of_round_trip(self):
        grid = TickGrid.build(city_trip(), DT)
        for i, t in enumerate(grid.times):
            assert grid.index_of(t) == i

    def test_index_of_off_grid_rejected(self):
        grid = TickGrid.build(city_trip(), DT)
        with pytest.raises(SimulationError):
            grid.index_of(grid.dt * 0.5)


class TestGridTrip:
    def test_duck_types_trip_surface(self):
        trip = city_trip()
        grid = TickGrid.build(trip, DT)
        proxy = GridTrip(grid)
        assert proxy.duration == trip.duration
        assert proxy.max_speed == trip.max_speed
        for t in grid.times:
            assert proxy.speed(t) == trip.speed(t)
            assert proxy.distance_travelled(t) == trip.distance_travelled(t)

    def test_off_grid_query_rejected(self):
        proxy = GridTrip(TickGrid.build(city_trip(), DT))
        with pytest.raises(SimulationError):
            proxy.speed(DT / 3.0)

    def test_answers_are_python_floats(self):
        grid = TickGrid.build(city_trip(), DT)
        proxy = GridTrip(grid)
        for t in (0.0, 7 * DT, grid.times[-1]):
            assert type(proxy.speed(t)) is float
            assert type(proxy.distance_travelled(t)) is float


class TestTripTickCache:
    def test_hit_on_same_trip_and_dt(self):
        cache = TripTickCache()
        trip = city_trip()
        first = cache.grid_for(trip, DT)
        second = cache.grid_for(trip, DT)
        assert first is second
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.hit_rate == pytest.approx(0.5)

    def test_miss_on_different_dt(self):
        cache = TripTickCache()
        trip = city_trip()
        a = cache.grid_for(trip, DT)
        b = cache.grid_for(trip, DT * 2)
        assert a is not b
        assert cache.misses == 2

    def test_miss_on_different_trip(self):
        cache = TripTickCache()
        cache.grid_for(city_trip(seed=1), DT)
        cache.grid_for(city_trip(seed=2), DT)
        assert cache.hits == 0
        assert cache.misses == 2

    def test_stats_shape(self):
        cache = TripTickCache()
        trip = Trip.synthetic(PiecewiseConstantCurve([(2.0, 1.0)]))
        cache.grid_for(trip, DT)
        cache.grid_for(trip, DT)
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["hit_rate"] == pytest.approx(0.5)
