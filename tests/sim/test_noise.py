"""Unit tests for repro.sim.noise (GPS measurement noise)."""

import random

import pytest

from repro.core.policies import make_policy
from repro.errors import SimulationError
from repro.sim.grid import TickGrid
from repro.sim.noise import (
    NoisyTripView,
    noisy_grid,
    reading_draws,
    simulate_trip_with_noise,
)
from repro.sim.speed_curves import CityCurve, ConstantCurve
from repro.sim.trip import Trip

C = 5.0
DT = 1.0 / 20.0


class TestNoisyTripView:
    def test_zero_epsilon_is_exact(self):
        trip = Trip.synthetic(ConstantCurve(10.0, 1.0))
        view = NoisyTripView(trip, 0.0, seed=1)
        assert view.distance_travelled(5.0) == trip.distance_travelled(5.0)

    def test_noise_bounded(self):
        trip = Trip.synthetic(ConstantCurve(10.0, 1.0))
        view = NoisyTripView(trip, 0.05, seed=2)
        for i in range(200):
            t = 10.0 * i / 200
            error = abs(
                view.distance_travelled(t) - trip.distance_travelled(t)
            )
            assert error <= 0.05 + 1e-12

    def test_repeated_measurement_is_stable(self):
        trip = Trip.synthetic(ConstantCurve(10.0, 1.0))
        view = NoisyTripView(trip, 0.05, seed=3)
        assert view.distance_travelled(4.0) == view.distance_travelled(4.0)

    def test_never_negative(self):
        trip = Trip.synthetic(ConstantCurve(10.0, 0.01))
        view = NoisyTripView(trip, 0.5, seed=4)
        assert view.distance_travelled(0.0) >= 0.0

    def test_speed_is_clean(self):
        trip = Trip.synthetic(ConstantCurve(10.0, 1.0))
        view = NoisyTripView(trip, 0.5, seed=5)
        assert view.speed(3.0) == 1.0

    def test_epsilon_validated(self):
        trip = Trip.synthetic(ConstantCurve(10.0, 1.0))
        with pytest.raises(SimulationError):
            NoisyTripView(trip, -0.1, seed=1)


    @pytest.mark.parametrize("epsilon", [0.0, -0.0, 1e-9, 0.02, 0.1, 0.5])
    def test_array_drawn_readings_are_the_views(self, epsilon):
        """One draw per (seed, tick), scaled per epsilon: every reading
        is the float the scalar definition returns, clamp included."""
        trip = Trip.synthetic(CityCurve(6.0, random.Random(7)))
        clean = TickGrid.build(trip, DT)
        draws = reading_draws(17, clean)
        view = NoisyTripView(trip, epsilon, seed=17)
        expected = [view.distance_travelled(t) for t in clean.times.tolist()]
        assert repr(noisy_grid(clean, epsilon, draws).travel.tolist()) \
            == repr(expected)
        if epsilon == 0.5:
            assert 0.0 in expected  # the clamp at the start of the trip


class TestNoisyRuns:
    def test_zero_noise_matches_clean_soundness(self):
        trip = Trip.synthetic(CityCurve(15.0, random.Random(1)))
        result = simulate_trip_with_noise(
            trip, make_policy("ail", C), 0.0, dt=DT, inflate_bounds=False
        )
        assert result.violations == 0

    def test_inflated_bound_sound_under_noise(self):
        for seed in (1, 2, 3):
            trip = Trip.synthetic(CityCurve(15.0, random.Random(seed)))
            result = simulate_trip_with_noise(
                trip, make_policy("ail", C), 0.1, seed=seed, dt=DT,
                inflate_bounds=True,
            )
            assert result.violations == 0, seed

    def test_noise_can_break_naive_bound(self):
        """With large noise the clean-model bound must eventually leak
        somewhere across seeds (this is the point of E18)."""
        leaked = 0
        for seed in range(6):
            trip = Trip.synthetic(CityCurve(15.0, random.Random(seed)))
            result = simulate_trip_with_noise(
                trip, make_policy("ail", C), 0.3, seed=seed, dt=DT,
                inflate_bounds=False,
            )
            leaked += result.violations
        assert leaked > 0

    def test_result_accounting(self):
        trip = Trip.synthetic(CityCurve(15.0, random.Random(9)))
        result = simulate_trip_with_noise(
            trip, make_policy("ail", C), 0.05, dt=DT
        )
        assert result.ticks == int(15.0 / DT)
        assert 0.0 <= result.violation_rate <= 1.0
        assert result.epsilon == 0.05
