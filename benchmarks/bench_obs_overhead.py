"""Overhead of the observability hooks on the engine's hot path.

Two measurements around ``simulate_trip`` on the same one-hour trip:

* **no-op registry** — the instrumented engine under the default
  :class:`NullRegistry` (the library path nobody observes),
* **live registry** — the same engine under a real registry, the price
  a fully observed run pays.

Their ratio is the overhead number.  The end-to-end cost of the
unobserved path is what ``benchmarks/e2e`` measures; there is no frozen
copy of a pre-instrumentation loop to compare against any more — it
would be a different algorithm from the one ``simulate_trip`` runs.
``pytest benchmarks/bench_obs_overhead.py --benchmark-only`` exposes
both for inspection.
"""

import random

import pytest

from repro.bench import benchmark as register_benchmark
from repro.core.policies import make_policy
from repro.obs import use_registry
from repro.obs.registry import get_registry
from repro.sim.engine import simulate_trip
from repro.sim.speed_curves import CityCurve
from repro.sim.trip import Trip

DT = 1.0 / 60.0


@pytest.fixture(scope="module")
def overhead_trip():
    return Trip.synthetic(CityCurve(60.0, random.Random(7)))


def _harness_trip():
    return Trip.synthetic(CityCurve(60.0, random.Random(7)))


@register_benchmark("obs.noop_registry", group="obs")
def harness_noop_registry():
    """Instrumented engine under the default NullRegistry."""
    trip = _harness_trip()
    policy = make_policy("ail", 5.0)
    return lambda: simulate_trip(trip, policy, dt=DT)


@register_benchmark("obs.live_registry", group="obs")
def harness_live_registry():
    """Instrumented engine under a live MetricsRegistry."""
    trip = _harness_trip()
    policy = make_policy("ail", 5.0)

    def kernel():
        with use_registry():
            return simulate_trip(trip, policy, dt=DT)

    return kernel


def test_bench_noop_registry(benchmark, overhead_trip):
    policy = make_policy("ail", 5.0)
    assert get_registry().enabled is False
    result = benchmark(lambda: simulate_trip(overhead_trip, policy, dt=DT))
    assert result.metrics.num_updates > 0


def test_bench_live_registry(benchmark, overhead_trip):
    policy = make_policy("ail", 5.0)
    with use_registry():
        result = benchmark(
            lambda: simulate_trip(overhead_trip, policy, dt=DT)
        )
    assert result.metrics.num_updates > 0
