"""A trip's distance profile: float64 buffers on a shared time grid.

``Trip`` and ``MultiLegTrip`` keep their integrated distance as one
read-only float64 array and share one time grid per ``(steps, dt)``
layout.  Every answer must still be the float the list-and-``bisect``
profile gave, as a Python ``float``; the reference below is a frozen
copy of that code.
"""

from __future__ import annotations

import bisect
import gc
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.routes.generators import straight_route
from repro.sim.grid import TickGrid
from repro.sim.multileg import Leg, MultiLegTrip
from repro.sim.speed_curves import (
    CityCurve,
    ConstantCurve,
    HighwayCurve,
    PiecewiseConstantCurve,
    TrafficJamCurve,
)
from repro.sim.trip import Trip, time_grid
from tests.conftest import examples

_INTEGRATION_DT = 1.0 / 60.0


def reference_profile(curve):
    """The ``(times, cumulative)`` lists ``Trip._integrate`` returned."""
    steps = max(int(round(curve.duration / _INTEGRATION_DT)), 1)
    dt = curve.duration / steps
    midpoint_speeds = curve.speed_many((np.arange(1, steps + 1) - 0.5) * dt)
    cumulative = [0.0] + np.cumsum(midpoint_speeds * dt).tolist()
    times = (np.arange(steps + 1) * dt).tolist()
    return times, cumulative


def reference_distance(times, cumulative, duration, t):
    """``interpolate_distance`` over the lists, as it was."""
    if not -1e-9 <= t <= duration + 1e-9:
        raise SimulationError(
            f"time {t} outside trip duration [0, {duration}]"
        )
    t = min(max(t, 0.0), duration)
    idx = bisect.bisect_right(times, t) - 1
    idx = min(max(idx, 0), len(times) - 2)
    t0, t1 = times[idx], times[idx + 1]
    d0, d1 = cumulative[idx], cumulative[idx + 1]
    if t1 <= t0:
        return d0
    return d0 + (d1 - d0) * (t - t0) / (t1 - t0)


durations = st.one_of(
    st.floats(0.001, 0.1),                     # one or a few steps
    st.floats(0.1, 5.0),
    st.floats(5.0, 90.0),                      # up to 5 400 steps
)


@st.composite
def curves(draw):
    duration = draw(durations)
    seed = draw(st.integers(0, 2**16))
    kind = draw(st.sampled_from(
        ["constant", "piecewise", "city", "highway", "jam"]))
    if kind == "constant":
        return ConstantCurve(duration, draw(st.floats(0.0, 1.5)))
    if kind == "piecewise":
        shares = draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=6))
        return PiecewiseConstantCurve(
            [(duration * share / sum(shares), draw(st.floats(0.0, 1.5)))
             for share in shares])
    rng = random.Random(seed)
    if kind == "city":
        return CityCurve(duration, rng)
    if kind == "highway":
        return HighwayCurve(duration, rng)
    return TrafficJamCurve(max(duration, 10.0), rng)


def probe_times(times, duration, rng):
    """Knots, points between knots, and the ends within 1e-9."""
    last = len(times) - 1
    knots = [rng.randint(0, last) for _ in range(20)]
    probes = [times[i] for i in knots]
    for i in knots:
        i = min(i, last - 1)
        probes.append(times[i] + (times[i + 1] - times[i]) * rng.random())
        probes.append((times[i] + times[i + 1]) / 2.0)
    probes += [0.0, -0.0, -1e-9, 1e-9, duration, duration - 1e-9,
               duration + 1e-9]
    return [t for t in probes if -1e-9 <= t <= duration + 1e-9]


def journeys(curve):
    legs = [Leg(straight_route(0.5, "a")),
            Leg(straight_route(curve.duration * 2.0 + 1.0, "b"))]
    return [Trip.synthetic(curve), MultiLegTrip(legs, curve)]


@settings(max_examples=examples(60))
@given(curve=curves(), seed=st.integers(0, 2**16))
@example(curve=ConstantCurve(0.001, 1.0), seed=0)
@example(curve=PiecewiseConstantCurve([(0.02, 1.0), (0.013, 0.0)]), seed=1)
def test_same_floats_as_the_list_profile(curve, seed):
    times, cumulative = reference_profile(curve)
    ts = probe_times(times, curve.duration, random.Random(seed))
    expected = [reference_distance(times, cumulative, curve.duration, t)
                for t in ts]
    for trip in journeys(curve):
        answers = [trip.distance_travelled(t) for t in ts]
        assert all(type(d) is float for d in answers)
        assert answers == expected
        assert trip.distance_travelled_many(ts).tolist() == expected
        assert type(trip.total_distance) is float
        assert trip.total_distance == cumulative[-1]
    trip = journeys(curve)[0]
    assert all(type(trip.travel_at(t)) is float for t in ts)
    for bad in (-2e-9, curve.duration + 2e-9):
        with pytest.raises(SimulationError):
            trip.distance_travelled(bad)


def test_profiles_are_read_only_and_share_one_time_grid():
    a = Trip.synthetic(ConstantCurve(60.0, 0.5))
    b = MultiLegTrip([Leg(straight_route(80.0, "r"))],
                     HighwayCurve(60.0, random.Random(2)))
    assert a._times is b._times is time_grid(3600, 60.0 / 3600)
    for profile in (a._times, a._cumulative, b._cumulative):
        assert profile.dtype == np.float64 and not profile.flags.writeable
    # A tick grid on that layout holds the same array, uncopied.
    grid = TickGrid.build(a, 60.0 / 3600)
    assert grid.times is a._times
    assert TickGrid(grid.dt, grid.duration, grid.max_speed, grid.times,
                    grid.travel, grid.speeds).travel is grid.travel


def test_a_trip_retains_at_most_ten_bytes_per_step():
    # The time grid is shared, so only the distance buffer is the trip's.
    keep = Trip.synthetic(ConstantCurve(60.0, 0.5))
    curve = CityCurve(60.0, random.Random(3))
    curve.max_speed()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trip = Trip.synthetic(curve)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    steps = len(trip._cumulative) - 1
    assert trip._times is keep._times
    assert retained <= 10 * steps, retained / steps
