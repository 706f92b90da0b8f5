"""Micro-benchmark of the simulation engine's tick throughput.

Supporting evidence for the evaluation harness: a one-hour trip at
one-second resolution (3600 policy evaluations) must simulate in a
small fraction of a second so the full sweeps stay laptop-friendly.
"""

import random

from repro.core.policies import make_policy
from repro.sim.engine import simulate_trip
from repro.sim.speed_curves import CityCurve, HighwayCurve
from repro.sim.trip import Trip


def test_bench_hour_trip_one_second_ticks(benchmark):
    trip = Trip.synthetic(CityCurve(60.0, random.Random(7)))

    result = benchmark(
        lambda: simulate_trip(trip, make_policy("ail", 5.0), dt=1.0 / 60.0)
    )
    assert result.metrics.duration == 60.0


def test_bench_trip_construction(benchmark):
    """Curve integration cost (dominates fleet set-up)."""
    rng = random.Random(8)

    def build():
        return Trip.synthetic(HighwayCurve(60.0, rng))

    trip = benchmark(build)
    assert trip.total_distance > 0


def test_bench_series_recording_overhead(benchmark):
    """A kernel pass of one dl lane that also keeps its series.

    What recording adds to ``test_bench_hour_trip``'s kind of run: a
    reckoned-travel buffer, three tile copies a window and the
    ``tolist()`` of 3600 rows.  (Not a reference-loop timing: the
    kernel returns the series.)
    """
    trip = Trip.synthetic(HighwayCurve(60.0, random.Random(9)))
    result = benchmark(
        lambda: simulate_trip(
            trip, make_policy("dl", 5.0), dt=1.0 / 60.0, record_series=True
        )
    )
    assert result.series is not None
