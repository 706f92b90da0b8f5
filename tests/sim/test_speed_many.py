"""Differential tests: the array path of trip construction vs. scalar oracles.

``SpeedCurve.speed_many``, the curve summaries, ``Trip._integrate`` and
``interpolate_distance_many`` promise *the same floats* as the scalar
code they replaced.  The scalar
definitions live on here, as the reference the array code is compared
against with ``==`` (never ``approx``).
"""

import inspect
import math
import random

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.routes.generators import straight_route
from repro.sim.multileg import Leg, MultiLegTrip
from repro.sim.speed_curves import (
    CityCurve,
    ConstantCurve,
    HighwayCurve,
    MixedCurve,
    PiecewiseConstantCurve,
    RushHourCurve,
    SpeedCurve,
    TraceCurve,
    TrafficJamCurve,
    standard_curve_set,
)
from repro.sim.trip import (
    _INTEGRATION_DT,
    Trip,
    interpolate_distance,
    interpolate_distance_many,
)

SEEDS = (3, 11, 1998)


def _trace(rng, samples=40):
    t = 0.0
    points = [(0.0, rng.uniform(0.0, 1.2))]
    for _ in range(samples):
        t += rng.uniform(0.05, 1.5)
        points.append((t, rng.uniform(0.0, 1.2)))
    return TraceCurve(points)


#: Seeded instances of every concrete curve class.  A class missing
#: here fails ``test_every_curve_class_is_covered``.
FACTORIES = {
    ConstantCurve: lambda rng: [
        ConstantCurve(rng.uniform(5.0, 40.0), rng.uniform(0.0, 1.5)),
        ConstantCurve(7.5, 1),
    ],
    PiecewiseConstantCurve: lambda rng: [
        PiecewiseConstantCurve(
            [(rng.uniform(0.01, 4.0), rng.uniform(0.0, 1.5))
             for _ in range(rng.randint(1, 25))]
        ),
        PiecewiseConstantCurve([(2, 1), (8, 0)]),
    ],
    HighwayCurve: lambda rng: [
        HighwayCurve(rng.uniform(5.0, 60.0), rng,
                     cruise=rng.uniform(0.4, 1.2)),
        # A wobble near 1 drives the fluctuation into the max(., 0) clamp.
        HighwayCurve(30.0, rng, cruise=0.05, wobble=0.99, components=1),
        HighwayCurve(30.0, rng, components=6),
    ],
    CityCurve: lambda rng: [
        CityCurve(rng.uniform(5.0, 60.0), rng, cruise=rng.uniform(0.3, 0.6)),
    ],
    TrafficJamCurve: lambda rng: [
        TrafficJamCurve(rng.uniform(20.0, 60.0), rng),
        # The jam ends inside its own slow-down ramp, and at the trip end.
        TrafficJamCurve(10.0, rng, jam_minutes=(0.1, 0.3)),
        TrafficJamCurve(10.0, rng, jam_start_range=(8.0, 9.0)),
    ],
    RushHourCurve: lambda rng: [
        RushHourCurve(rng.uniform(5.0, 60.0), rng),
    ],
    TraceCurve: lambda rng: [
        _trace(rng),
        TraceCurve([(0.0, 1), (3, 0)]),
    ],
    MixedCurve: lambda rng: [
        MixedCurve([CityCurve(12.0, rng), HighwayCurve(9.0, rng),
                    TrafficJamCurve(20.0, rng), _trace(rng, 10)]),
        MixedCurve([MixedCurve([ConstantCurve(2.0, 0.3),
                                RushHourCurve(6.0, rng)]),
                    PiecewiseConstantCurve([(1.0, 0.2), (0.5, 0.9)])]),
    ],
}


def _concrete_curve_classes():
    found, stack = set(), [SpeedCurve]
    while stack:
        for cls in stack.pop().__subclasses__():
            stack.append(cls)
            # Curve classes a test module defines are not the library's.
            if cls.__module__.startswith("repro.") and not inspect.isabstract(cls):
                found.add(cls)
    return found


def _seeded_curves():
    for cls in sorted(FACTORIES, key=lambda c: c.__name__):
        for seed in SEEDS:
            for n, curve in enumerate(FACTORIES[cls](random.Random(seed))):
                yield pytest.param(curve, id=f"{cls.__name__}-{seed}-{n}")


ALL_CURVES = list(_seeded_curves())


def _breakpoints(curve):
    """Times where a curve switches piece, whatever its class calls them."""
    found = []
    for name in ("_boundaries", "_times"):
        found.extend(getattr(curve, name, []))
    for name in ("jam_start", "jam_end"):
        if hasattr(curve, name):
            at = getattr(curve, name)
            found.extend([at, at + curve.ramp])
    for offset, part in zip(found[:], getattr(curve, "_parts", [])):
        found.extend(offset + t for t in _breakpoints(part))
    if hasattr(curve, "_inner"):
        found.extend(_breakpoints(curve._inner))
    return [t for t in found if 0.0 <= t <= curve.duration]


def _probe_times(curve, rng):
    d = curve.duration
    times = [d * i / 257 for i in range(258)]                  # a grid
    times += [rng.uniform(0.0, d) for _ in range(300)]         # off it
    times += [0.0, -0.0, -1e-9, d, d + 1e-9, math.nextafter(d, 0.0)]
    for t in _breakpoints(curve):
        times += [t, math.nextafter(t, -math.inf), math.nextafter(t, math.inf)]
    return [t for t in times if -1e-9 <= t <= d + 1e-9]


# ----------------------------------------------------------------------
# Scalar oracles: the definitions the array code replaced.
# ----------------------------------------------------------------------

def scalar_max_speed(curve, samples=2048):
    peak = max(
        curve.speed(curve.duration * i / samples) for i in range(samples + 1)
    )
    return peak * 1.001 + 1e-12


def scalar_mean_speed(curve, samples=2048):
    total = 0.0
    dt = curve.duration / samples
    for i in range(samples):
        a = curve.speed(i * dt)
        b = curve.speed((i + 1) * dt)
        total += (a + b) / 2.0 * dt
    return total / curve.duration


def scalar_integrate(curve):
    steps = max(int(round(curve.duration / _INTEGRATION_DT)), 1)
    dt = curve.duration / steps
    times = [0.0]
    cumulative = [0.0]
    for i in range(1, steps + 1):
        midpoint_speed = curve.speed((i - 0.5) * dt)
        cumulative.append(cumulative[-1] + midpoint_speed * dt)
        times.append(i * dt)
    return times, cumulative


# ----------------------------------------------------------------------

def test_every_curve_class_is_covered():
    assert _concrete_curve_classes() == set(FACTORIES)


class TestSpeedMany:
    @pytest.mark.parametrize("curve", ALL_CURVES)
    def test_same_floats_as_speed(self, curve):
        times = _probe_times(curve, random.Random(5))
        many = curve.speed_many(times)
        assert isinstance(many, np.ndarray) and many.dtype == np.float64
        assert many.tolist() == [curve.speed(t) for t in times]
        # An ndarray argument, and a reordered one, change nothing.
        shuffled = random.Random(6).sample(times, len(times))
        assert curve.speed_many(np.array(shuffled)).tolist() == [
            curve.speed(t) for t in shuffled
        ]

    @pytest.mark.parametrize("curve", ALL_CURVES)
    def test_empty_input(self, curve):
        for empty in ([], np.empty(0)):
            many = curve.speed_many(empty)
            assert many.shape == (0,) and many.dtype == np.float64

    @pytest.mark.parametrize("curve", ALL_CURVES)
    def test_out_of_domain_rejected(self, curve):
        d = curve.duration
        for bad in (-1.0, -1e-6, d + 1e-6, d + 1.0, math.nan):
            with pytest.raises(SimulationError):
                curve.speed(bad)
            with pytest.raises(SimulationError):
                curve.speed_many([0.0, bad, d / 2.0])

    def test_default_loops_over_speed(self):
        class Ramp(SpeedCurve):
            def speed(self, t):
                self._check_time(t)
                return t / 3.0

        curve = Ramp(9.0)
        times = [0.0, 0.1, 4.5, 9.0]
        assert curve.speed_many(times).tolist() == [t / 3.0 for t in times]
        assert curve.speed_many([]).shape == (0,)
        with pytest.raises(SimulationError):
            curve.speed_many([1.0, 10.0])
        assert curve.max_speed() == scalar_max_speed(curve)
        assert curve.mean_speed() == scalar_mean_speed(curve)


class TestSummaries:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_equal_the_scalar_definitions_on_the_standard_set(self, seed):
        for curve in standard_curve_set(random.Random(seed), count=10):
            for samples in (2048, 300):
                assert curve.max_speed(samples) == scalar_max_speed(
                    curve, samples), curve.kind
                assert curve.mean_speed(samples) == scalar_mean_speed(
                    curve, samples), curve.kind

    @pytest.mark.parametrize("curve", ALL_CURVES)
    def test_mean_equals_the_scalar_definition(self, curve):
        assert curve.mean_speed() == scalar_mean_speed(curve)
        assert curve.mean_speed(97) == scalar_mean_speed(curve, 97)

    @pytest.mark.parametrize("curve", ALL_CURVES)
    def test_max_is_never_below_the_sampled_peak(self, curve):
        # Equal for the sampled classes, >= for the exact ones.
        assert curve.max_speed() >= scalar_max_speed(curve)

    def test_memoised_per_curve_and_sample_count(self, monkeypatch):
        curve = HighwayCurve(30.0, random.Random(2))
        first = (curve.max_speed(), curve.mean_speed(), curve.max_speed(64))
        assert first[0] != first[2]
        monkeypatch.setattr(
            curve, "speed_many",
            lambda ts: pytest.fail("a memoised summary was recomputed"),
        )
        assert (curve.max_speed(), curve.mean_speed(),
                curve.max_speed(64)) == first

    def test_multileg_max_speed_reads_the_memoised_value(self, monkeypatch):
        curve = RushHourCurve(10.0, random.Random(2))
        trip = MultiLegTrip([Leg(straight_route(20.0, "leg"))], curve)
        expected = trip.max_speed
        monkeypatch.setattr(
            curve, "speed_many",
            lambda ts: pytest.fail("max_speed resampled the curve"),
        )
        assert trip.max_speed == expected == curve.max_speed()


class TestEnvelope:
    """``V`` must bound the curve everywhere, not only on a sample grid."""

    def test_piecewise_sliver_phase(self):
        curve = PiecewiseConstantCurve([(30.01, 0.5), (0.01, 2.0), (29.98, 0.5)])
        assert scalar_max_speed(curve) < 2.0  # the grid steps over it
        assert curve.max_speed() == 2.0 * 1.001 + 1e-12
        assert Trip.synthetic(curve).max_speed >= curve.speed(30.015)

    def test_city_delegates_to_its_phases(self):
        curve = CityCurve(30.0, random.Random(4))
        assert curve.max_speed() == max(curve._inner._speeds) * 1.001 + 1e-12

    def test_trace_spike(self):
        curve = TraceCurve(
            [(0.0, 0.5), (30.001, 0.5), (30.002, 3.0), (30.003, 0.5),
             (60.0, 0.5)]
        )
        assert scalar_max_speed(curve) < 3.0
        assert curve.max_speed() == 3.0 * 1.001 + 1e-12

    @pytest.mark.parametrize("curve", ALL_CURVES)
    def test_trip_max_speed_bounds_speed_off_grid(self, curve):
        trip = Trip.synthetic(curve)
        rng = random.Random(8)
        times = [rng.uniform(0.0, curve.duration) for _ in range(4000)]
        times += _breakpoints(curve)
        assert trip.max_speed >= max(trip.speed(t) for t in times)


class TestIntegrate:
    @pytest.mark.parametrize("curve", ALL_CURVES)
    def test_equals_the_scalar_integrator(self, curve):
        times, cumulative = Trip._integrate(curve)
        ref_times, ref_cumulative = scalar_integrate(curve)
        for profile in (times, cumulative):
            assert profile.dtype == np.float64 and not profile.flags.writeable
        times, cumulative = times.tolist(), cumulative.tolist()
        assert all(type(x) is float for x in times + cumulative)
        assert times == ref_times
        assert cumulative == ref_cumulative

    def test_standard_set_and_short_trips(self):
        curves = standard_curve_set(random.Random(1998), count=10)
        curves += [ConstantCurve(0.001, 1.0), ConstantCurve(1.0 / 60.0, 0.4),
                   PiecewiseConstantCurve([(0.02, 1.0), (0.013, 0.0)])]
        for curve in curves:
            times, cumulative = Trip._integrate(curve)
            assert (times.tolist(), cumulative.tolist()) == scalar_integrate(curve)

    def test_multileg_shares_the_profile_and_the_interpolation(self):
        curve = CityCurve(12.0, random.Random(9))
        trip = Trip.synthetic(curve)
        legs = [Leg(straight_route(5.0, "a")), Leg(straight_route(50.0, "b"))]
        multi = MultiLegTrip(legs, curve)
        rng = random.Random(10)
        for t in [0.0, 12.0, 12.0 + 1e-9] + [rng.uniform(0.0, 12.0)
                                              for _ in range(200)]:
            assert multi.distance_travelled(t) == trip.distance_travelled(t)
        for bad in (-0.5, 12.5):
            with pytest.raises(SimulationError):
                multi.distance_travelled(bad)
            with pytest.raises(SimulationError):
                trip.distance_travelled(bad)


class TestInterpolateMany:
    """``interpolate_distance_many`` vs. the scalar ``interpolate_distance``."""

    @staticmethod
    def _trips(curve):
        legs = [Leg(straight_route(1.0, "a")),
                Leg(straight_route(curve.duration * 4.0 + 1.0, "b"))]
        return [Trip.synthetic(curve), MultiLegTrip(legs, curve)]

    @pytest.mark.parametrize("curve", ALL_CURVES)
    def test_same_floats_as_distance_travelled(self, curve):
        d = curve.duration
        dt = d / 257
        times = [i * dt for i in range(int(d / dt + 1e-9) + 1)]  # a tick grid
        times += _probe_times(curve, random.Random(5))       # off it, and edges
        times += [0.0, d, d + 5e-10]
        for trip in self._trips(curve):
            many = trip.distance_travelled_many(times)
            assert isinstance(many, np.ndarray) and many.dtype == np.float64
            assert many.tolist() == [trip.distance_travelled(t) for t in times]
            # An ndarray argument, and a reordered one, change nothing.
            shuffled = random.Random(6).sample(times, len(times))
            assert trip.distance_travelled_many(np.array(shuffled)).tolist() \
                == [trip.distance_travelled(t) for t in shuffled]

    @pytest.mark.parametrize("curve", ALL_CURVES)
    def test_out_of_domain_rejected(self, curve):
        d = curve.duration
        for trip in self._trips(curve):
            for bad in (-1.0, -1e-6, d + 1e-6, d + 1.0, math.nan):
                with pytest.raises(SimulationError):
                    trip.distance_travelled(bad)
                with pytest.raises(SimulationError):
                    trip.distance_travelled_many([0.0, bad, d / 2.0])

    def test_empty_input(self):
        trip = Trip.synthetic(ConstantCurve(5.0, 0.5))
        for empty in ([], np.empty(0)):
            many = trip.distance_travelled_many(empty)
            assert many.shape == (0,) and many.dtype == np.float64

    def test_degenerate_segment_answers_its_left_end(self):
        # A profile _integrate never produces; the scalar guard handles it.
        times = [0.0, 1.0, 1.0, 2.0]
        cumulative = [0.0, 3.0, 4.0, 5.0]
        probes = [0.0, 0.5, 1.0, 1.5, 2.0]
        assert interpolate_distance_many(
            times, cumulative, 2.0, probes
        ).tolist() == [interpolate_distance(times, cumulative, 2.0, t)
                       for t in probes]
        assert interpolate_distance_many(
            [0.0, 0.0], [1.0, 2.0], 1.0, [0.0, 1.0]
        ).tolist() == [interpolate_distance([0.0, 0.0], [1.0, 2.0], 1.0, t)
                       for t in (0.0, 1.0)]
